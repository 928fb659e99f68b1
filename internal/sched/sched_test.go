package sched

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleJob(t *testing.T) {
	s := NewSim(4)
	if err := s.Submit(Item{ID: 1, Submit: 100, Nodes: 2, RuntimeSec: 60}); err != nil {
		t.Fatal(err)
	}
	ps := s.Drain()
	if len(ps) != 1 {
		t.Fatalf("%d placements", len(ps))
	}
	p := ps[0]
	if p.Start != 100 || p.End != 160 {
		t.Fatalf("placement %+v, want start 100 end 160", p)
	}
	if p.Turnaround() != 60 {
		t.Fatalf("turnaround %d", p.Turnaround())
	}
}

func TestFCFSQueueing(t *testing.T) {
	// Two 3-node jobs on a 4-node machine: the second waits.
	s := NewSim(4)
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 3, RuntimeSec: 100})
	s.Submit(Item{ID: 2, Submit: 10, Nodes: 3, RuntimeSec: 50})
	got := map[int]Placement{}
	for _, p := range s.Drain() {
		got[p.ID] = p
	}
	if got[1].Start != 0 {
		t.Fatalf("job1 start %d", got[1].Start)
	}
	if got[2].Start != 100 {
		t.Fatalf("job2 start %d, want 100 (after job1)", got[2].Start)
	}
}

func TestBackfillFillsHole(t *testing.T) {
	// Machine: 4 nodes. J1 occupies 3 nodes until t=100. J2 (head,
	// 4 nodes) must wait for t=100. J3 (1 node, 50s) fits in the hole and
	// ends before J2's shadow time → backfills at its submit time.
	s := NewSim(4)
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 3, RuntimeSec: 100})
	s.Submit(Item{ID: 2, Submit: 5, Nodes: 4, RuntimeSec: 100})
	s.Submit(Item{ID: 3, Submit: 10, Nodes: 1, RuntimeSec: 50})
	got := map[int]Placement{}
	for _, p := range s.Drain() {
		got[p.ID] = p
	}
	if got[3].Start != 10 {
		t.Fatalf("job3 start %d, want 10 (backfilled)", got[3].Start)
	}
	if got[2].Start != 100 {
		t.Fatalf("job2 start %d, want 100 (not delayed by backfill)", got[2].Start)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	// J3 would fit in free nodes but runs past the shadow time and would
	// steal the head's reserved nodes → must not backfill.
	s := NewSim(4)
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 3, RuntimeSec: 100})
	s.Submit(Item{ID: 2, Submit: 5, Nodes: 4, RuntimeSec: 100})
	s.Submit(Item{ID: 3, Submit: 10, Nodes: 1, RuntimeSec: 500})
	got := map[int]Placement{}
	for _, p := range s.Drain() {
		got[p.ID] = p
	}
	if got[2].Start != 100 {
		t.Fatalf("head start %d, want 100", got[2].Start)
	}
	if got[3].Start < 100 {
		t.Fatalf("long filler started at %d, delaying head", got[3].Start)
	}
}

func TestFCFSWithoutBackfill(t *testing.T) {
	s := NewSim(4)
	s.Backfill = false
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 3, RuntimeSec: 100})
	s.Submit(Item{ID: 2, Submit: 5, Nodes: 4, RuntimeSec: 100})
	s.Submit(Item{ID: 3, Submit: 10, Nodes: 1, RuntimeSec: 50})
	got := map[int]Placement{}
	for _, p := range s.Drain() {
		got[p.ID] = p
	}
	if got[3].Start < got[2].Start {
		t.Fatalf("job3 started %d before head %d without backfill", got[3].Start, got[2].Start)
	}
}

func TestLimitKillsJob(t *testing.T) {
	s := NewSim(2)
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 1, RuntimeSec: 1000, LimitSec: 300})
	p := s.Drain()[0]
	if p.End != 300 {
		t.Fatalf("job ended at %d, want killed at limit 300", p.End)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := NewSim(4)
	if err := s.Submit(Item{ID: 1, Submit: 100, Nodes: 5, RuntimeSec: 10}); err == nil {
		t.Fatal("oversized job accepted")
	}
	s.Submit(Item{ID: 2, Submit: 100, Nodes: 1, RuntimeSec: 10})
	if err := s.Submit(Item{ID: 3, Submit: 50, Nodes: 1, RuntimeSec: 10}); err == nil {
		t.Fatal("out-of-order submission accepted")
	}
}

func TestNoOverlapInvariant(t *testing.T) {
	// Property: at no instant does allocated node count exceed the
	// machine size, and every job runs exactly its runtime.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 8 + rng.Intn(24)
		s := NewSim(nodes)
		var items []Item
		clock := int64(0)
		for i := 0; i < 60; i++ {
			clock += int64(rng.Intn(50))
			it := Item{
				ID:         i,
				Submit:     clock,
				Nodes:      1 + rng.Intn(nodes),
				RuntimeSec: int64(1 + rng.Intn(500)),
			}
			items = append(items, it)
			if err := s.Submit(it); err != nil {
				return false
			}
		}
		ps := s.Drain()
		if len(ps) != len(items) {
			return false
		}
		byID := map[int]Item{}
		for _, it := range items {
			byID[it.ID] = it
		}
		// Check runtimes and start >= submit.
		type ev struct {
			t     int64
			delta int
		}
		var evs []ev
		for _, p := range ps {
			it := byID[p.ID]
			if p.End-p.Start != it.RuntimeSec {
				return false
			}
			if p.Start < it.Submit {
				return false
			}
			evs = append(evs, ev{p.Start, it.Nodes}, ev{p.End, -it.Nodes})
		}
		// Sweep: allocation never exceeds capacity. Completions at time t
		// free nodes before starts at time t.
		used := 0
		for {
			if len(evs) == 0 {
				break
			}
			// Find min time.
			mt := evs[0].t
			for _, e := range evs {
				if e.t < mt {
					mt = e.t
				}
			}
			rest := evs[:0]
			delta := 0
			for _, e := range evs {
				if e.t == mt {
					delta += e.delta
				} else {
					rest = append(rest, e)
				}
			}
			evs = rest
			used += delta
			if used > nodes || used < 0 {
				return false
			}
		}
		return used == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSim(4)
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 2, RuntimeSec: 100})
	s.Submit(Item{ID: 2, Submit: 10, Nodes: 4, RuntimeSec: 50})
	c := s.Clone()
	c.OverrideRuntimes(func(id int) int64 { return 1 })
	c.Drain()
	// Original still has its jobs with original runtimes.
	got := map[int]Placement{}
	for _, p := range s.Drain() {
		got[p.ID] = p
	}
	if got[1].End-got[1].Start != 100 {
		t.Fatalf("clone mutation leaked into original: %+v", got[1])
	}
}

func TestOverrideRuntimesPastEnd(t *testing.T) {
	// A running job whose predicted runtime is already exceeded ends at
	// the current clock, not in the past.
	s := NewSim(2)
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 1, RuntimeSec: 1000})
	s.Submit(Item{ID: 2, Submit: 500, Nodes: 2, RuntimeSec: 100})
	c := s.Clone()
	c.OverrideRuntimes(func(id int) int64 { return 10 }) // job1 "should" have ended at t=10
	p, ok := c.RunUntilDone(2)
	if !ok {
		t.Fatal("job 2 missing from snapshot")
	}
	if p.Start < 500 {
		t.Fatalf("job2 started at %d, before its submission", p.Start)
	}
}

func TestRunUntilDoneMissingJob(t *testing.T) {
	s := NewSim(2)
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 1, RuntimeSec: 10})
	if _, ok := s.Clone().RunUntilDone(99); ok {
		t.Fatal("found a job that was never submitted")
	}
}

func TestPredictTurnaroundsPerfectPredictorFCFS(t *testing.T) {
	// Under plain FCFS, pred == actual runtime ⇒ predicted turnaround
	// equals real turnaround for every job (no backfill interactions
	// with future arrivals).
	rng := rand.New(rand.NewSource(42))
	var items []Item
	clock := int64(0)
	runtimes := map[int]int64{}
	for i := 0; i < 80; i++ {
		clock += int64(rng.Intn(40))
		r := int64(10 + rng.Intn(300))
		runtimes[i] = r
		items = append(items, Item{ID: i, Submit: clock, Nodes: 1 + rng.Intn(8), RuntimeSec: r})
	}
	res, err := PredictTurnarounds(context.Background(), items, SimConfig{Nodes: 16}, func(id int) int64 { return runtimes[id] })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(items) {
		t.Fatalf("%d results for %d items", len(res), len(items))
	}
	for _, r := range res {
		if r.PredictedSec != r.RealSec {
			t.Fatalf("job %d: predicted %d, real %d with a perfect predictor",
				r.ID, r.PredictedSec, r.RealSec)
		}
	}
}

func TestPredictTurnaroundsPerfectPredictorBackfillClose(t *testing.T) {
	// Under EASY backfill, future arrivals shift shadow times, so even a
	// perfect runtime predictor has residual turnaround error — but it
	// must stay small in aggregate.
	rng := rand.New(rand.NewSource(43))
	var items []Item
	clock := int64(0)
	runtimes := map[int]int64{}
	for i := 0; i < 150; i++ {
		clock += int64(rng.Intn(40))
		r := int64(10 + rng.Intn(300))
		runtimes[i] = r
		items = append(items, Item{ID: i, Submit: clock, Nodes: 1 + rng.Intn(8), RuntimeSec: r})
	}
	res, err := PredictTurnarounds(context.Background(), items, SimConfig{Nodes: 16, Backfill: true},
		func(id int) int64 { return runtimes[id] })
	if err != nil {
		t.Fatal(err)
	}
	var accSum float64
	for _, r := range res {
		a, p := float64(r.RealSec), float64(r.PredictedSec)
		accSum += 1 - abs64(a-p)/(max64(a, p)+1e-12)
	}
	if mean := accSum / float64(len(res)); mean < 0.8 {
		t.Fatalf("mean turnaround accuracy %v < 0.8 with perfect runtimes", mean)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestPredictTurnaroundsBiasedPredictor(t *testing.T) {
	// Systematic 4x overprediction of runtimes must inflate predicted
	// turnarounds for queued jobs.
	var items []Item
	for i := 0; i < 20; i++ {
		items = append(items, Item{ID: i, Submit: int64(i), Nodes: 4, RuntimeSec: 100})
	}
	res, err := PredictTurnarounds(context.Background(), items, SimConfig{Nodes: 4, Backfill: true}, func(id int) int64 { return 400 })
	if err != nil {
		t.Fatal(err)
	}
	// The last job queues behind 19 others: real turnaround ≈ 19*100,
	// predicted ≈ 19*400.
	last := res[len(res)-1]
	for _, r := range res {
		if r.ID == 19 {
			last = r
		}
	}
	if last.PredictedSec < 2*last.RealSec {
		t.Fatalf("overpredicting runtimes did not inflate turnaround: real %d pred %d",
			last.RealSec, last.PredictedSec)
	}
}

func TestScheduleProducesAllPlacements(t *testing.T) {
	var items []Item
	for i := 0; i < 50; i++ {
		items = append(items, Item{ID: i, Submit: int64(i * 5), Nodes: 2, RuntimeSec: 60})
	}
	got, err := Schedule(context.Background(), items, SimConfig{Nodes: 8, Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("%d placements", len(got))
	}
	for _, p := range got {
		if p.Start < items[p.ID].Submit {
			t.Fatalf("job %d starts before submission", p.ID)
		}
	}
}

func TestDrainIdleGap(t *testing.T) {
	// A gap with an empty machine between two jobs must not wedge Drain.
	s := NewSim(2)
	s.Submit(Item{ID: 1, Submit: 0, Nodes: 1, RuntimeSec: 10})
	s.Submit(Item{ID: 2, Submit: 10000, Nodes: 1, RuntimeSec: 10})
	ps := s.Drain()
	if len(ps) != 2 {
		t.Fatalf("%d placements", len(ps))
	}
}
