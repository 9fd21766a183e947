package main

import (
	"sync"
	"testing"
)

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTimeSequentialChildren(t *testing.T) {
	parent := sp(0, 100)
	kids := []span{sp(10, 20), sp(20, 50), sp(60, 90)}
	if got := selfTime(parent, kids); got != 30 {
		t.Fatalf("self = %d, want 100 - (10 + 30 + 30) = 30", got)
	}
}

func TestSelfTimeOverlappingParallelChildren(t *testing.T) {
	// Two workers' point spans overlap: the covered interval is their
	// union [10, 70) ∪ [80, 95), not the 95 ns their durations add to.
	parent := sp(0, 100)
	kids := []span{sp(10, 40), sp(30, 70), sp(15, 25), sp(80, 95)}
	if got := selfTime(parent, kids); got != 100-60-15 {
		t.Fatalf("self = %d, want %d", got, 100-60-15)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	parent := sp(100, 200)
	kids := []span{sp(50, 120), sp(190, 260), sp(300, 400)}
	if got := selfTime(parent, kids); got != 70 {
		t.Fatalf("self = %d, want 100 - 20 - 10 = 70", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self without children = %d, want 100", got)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("root", -1, 7)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.end(tr.begin("child", root, 7))
		}()
	}
	wg.Wait()
	tr.end(root)
	if len(tr.spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(tr.spans))
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != root || s.Req != 7 || s.Start < tr.spans[root].Start || s.End > tr.spans[root].End {
			t.Fatalf("child %+v not inside root %+v", s, tr.spans[root])
		}
	}
	off := newTracer(false)
	off.end(off.begin("x", -1, 0))
	if len(off.spans) != 0 {
		t.Fatal("a tracer that is off recorded a span")
	}
}
