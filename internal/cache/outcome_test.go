package cache

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestDoOutcomeJoined pins the observability contract cluster
// dedup metrics ride on: the flight leader reports neither Hit nor
// Joined, a concurrent caller that waits on the leader's computation
// reports Joined, and a later repeat reports Hit.
func TestDoOutcomeJoined(t *testing.T) {
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func() (any, error) {
		close(started)
		<-release
		return 42, nil
	}

	var (
		wg        sync.WaitGroup
		leaderOut Outcome
		joinerOut Outcome
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderOut, _ = c.Do(context.Background(), "k", compute)
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, joinerOut, _ = c.Do(context.Background(), "k", func() (any, error) {
			t.Error("joiner ran its own compute")
			return nil, nil
		})
	}()
	// The joiner increments SharedFlights before waiting; poll for it so
	// the release below cannot race the join.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().SharedFlights == 0 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if leaderOut.Hit || leaderOut.Joined {
		t.Errorf("leader outcome = %+v, want neither Hit nor Joined", leaderOut)
	}
	if !joinerOut.Joined || joinerOut.Hit {
		t.Errorf("joiner outcome = %+v, want Joined only", joinerOut)
	}

	_, out, err := c.Do(context.Background(), "k", func() (any, error) {
		t.Error("repeat ran compute")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Hit || out.Joined {
		t.Errorf("repeat outcome = %+v, want Hit only", out)
	}
}
