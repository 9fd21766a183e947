package main

import (
	"bytes"
	"testing"

	"multibus/internal/service"
)

// indices spans the warm-up and window parts of every stream.
var indices = []int{0, 1, 7, 203, 204, 205, 4095, 4096, 4607, 4608, 9999, 123456}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 42)
		c, _ := newWorkload(name, 43)
		differs := false
		for _, i := range indices {
			if !bytes.Equal(a.body(i), b.body(i)) {
				t.Errorf("%s: request %d differs between two generators with one seed", name, i)
			}
			if !bytes.Equal(a.body(i), c.body(i)) {
				differs = true
			}
			if a.sampled != nil && a.sampled(i) != b.sampled(i) {
				t.Errorf("%s: sampling of request %d differs with one seed", name, i)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 generate the same requests", name)
		}
	}
}

func TestRequestsAreValid(t *testing.T) {
	for _, name := range workloadNames {
		wl, _ := newWorkload(name, 1)
		for _, i := range indices[:6] {
			var err error
			if wl.route == "/v1/sweep" {
				_, err = sweepSpec(wl.body(i))
			} else {
				_, err = buildAnalyze(wl.body(i))
			}
			if err != nil {
				t.Errorf("%s: request %d: %v", name, i, err)
			}
		}
	}
}

func TestAnalyzeHotWarmupCoversEveryScenario(t *testing.T) {
	wl := analyzeHot(5)
	seen := map[string]bool{}
	for i := 0; i < wl.warmup; i++ {
		seen[string(wl.body(i))] = true
	}
	if len(seen) != wl.warmup {
		t.Fatalf("warm-up sends %d distinct scenarios in %d requests", len(seen), wl.warmup)
	}
	for i := wl.warmup; i < wl.warmup+5000; i++ {
		if !seen[string(wl.body(i))] {
			t.Fatalf("window request %d is not among the warmed scenarios", i)
		}
	}
}

func TestAnalyzeLargeMissesAnLRUOfTheServerCacheSize(t *testing.T) {
	wl := analyzeLarge(5)
	// The stream walks the pool strictly cyclically, so between two uses
	// of a key lie all largePool-1 other keys: more than the server's
	// LRU holds, so every window request misses. The warm-up fills it.
	distinct := map[string]bool{}
	for i := 0; i < largePool; i++ {
		distinct[string(wl.body(i))] = true
		if !bytes.Equal(wl.body(i), wl.body(i+largePool)) {
			t.Fatalf("request %d is not repeated one pool later", i)
		}
	}
	if len(distinct) != largePool {
		t.Fatalf("one pool turn holds %d distinct requests, want %d", len(distinct), largePool)
	}
	if largePool-1 <= service.DefaultCacheSize || wl.warmup != service.DefaultCacheSize {
		t.Fatalf("pool %d and warm-up %d do not match a %d-entry cache", largePool, wl.warmup, service.DefaultCacheSize)
	}
}

func TestUniqueRequestsStayUnique(t *testing.T) {
	for _, name := range []string{"sweep-sim", "cluster-analyze"} {
		wl, _ := newWorkload(name, 9)
		seen := map[string]int{}
		for i := 0; i < 20000; i++ {
			b := string(wl.body(i))
			if j, ok := seen[b]; ok {
				t.Fatalf("%s: requests %d and %d are identical", name, j, i)
			}
			seen[b] = i
		}
	}
}
