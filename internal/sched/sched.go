// Package sched is an event-driven cluster/batch-scheduler simulator
// standing in for the Flux resource-manager simulator the paper drives
// with its predictions (§4.1–4.2). It models a Cab-like machine — 1,296
// nodes, FCFS dispatch with EASY backfilling, SLURM-style termination of
// jobs that exceed their requested wall time — and implements the paper's
// snapshot mechanism for turnaround-time prediction: on each submission,
// copy the system state, replace every queued and running job's runtime
// with its predicted runtime, and roll the copy forward until the new job
// completes.
package sched

import (
	"container/heap"
	"fmt"
	"sort"
)

// CabNodes is the node count of the LLNL Cab cluster.
const CabNodes = 1296

// Item is one job as the scheduler sees it.
type Item struct {
	ID         int
	Submit     int64 // submission time, epoch seconds
	Nodes      int   // nodes requested
	RuntimeSec int64 // runtime the simulator will execute (actual runtime)
	LimitSec   int64 // requested wall limit; jobs are killed at this point
}

// Placement records when a job started and finished in a simulation.
type Placement struct {
	ID         int
	Submit     int64
	Start, End int64
	Nodes      int
}

// Turnaround returns end - submit in seconds.
func (p Placement) Turnaround() int64 { return p.End - p.Submit }

// simJob is the mutable in-simulator job state.
type simJob struct {
	Item
	start   int64
	end     int64 // valid while running
	running bool
}

// runHeap orders running jobs by end time.
type runHeap []*simJob

func (h runHeap) Len() int            { return len(h) }
func (h runHeap) Less(i, j int) bool  { return h[i].end < h[j].end }
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(*simJob)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Sim is the cluster simulator state. The zero value is not usable; call
// NewSim.
type Sim struct {
	nodes   int
	free    int
	now     int64
	queue   []*simJob // FCFS order
	running runHeap
	done    []Placement
	// Backfill toggles EASY backfilling; plain FCFS when false.
	Backfill bool
}

// SimConfig configures a simulator.
type SimConfig struct {
	Nodes    int  // machine size (e.g. CabNodes)
	Backfill bool // enable EASY backfilling
}

// NewSim returns an EASY-backfilling simulator for a cluster with the
// given node count.
func NewSim(nodes int) *Sim {
	return &Sim{nodes: nodes, free: nodes, Backfill: true}
}

// NewSimConfig returns a simulator for cfg.
func NewSimConfig(cfg SimConfig) *Sim {
	return &Sim{nodes: cfg.Nodes, free: cfg.Nodes, Backfill: cfg.Backfill}
}

// Now returns the simulator clock.
func (s *Sim) Now() int64 { return s.now }

// FreeNodes returns the currently unallocated node count.
func (s *Sim) FreeNodes() int { return s.free }

// QueueLen returns the number of queued (not yet started) jobs.
func (s *Sim) QueueLen() int { return len(s.queue) }

// RunningLen returns the number of executing jobs.
func (s *Sim) RunningLen() int { return len(s.running) }

// Submit adds a job at its submission time. Submissions must be fed in
// non-decreasing Submit order; the clock advances (processing
// completions) to the submission time first.
func (s *Sim) Submit(it Item) error {
	if it.Submit < s.now {
		return fmt.Errorf("sched: job %d submitted at %d, before clock %d", it.ID, it.Submit, s.now)
	}
	if it.Nodes <= 0 || it.Nodes > s.nodes {
		return fmt.Errorf("sched: job %d requests %d nodes on a %d-node machine", it.ID, it.Nodes, s.nodes)
	}
	s.AdvanceTo(it.Submit)
	j := &simJob{Item: it}
	if j.RuntimeSec < 0 {
		// A negative runtime (garbage prediction or corrupt trace row)
		// would move a job's end before its start and stall the event
		// loop; treat it as an instant job instead.
		j.RuntimeSec = 0
	}
	if j.LimitSec > 0 && j.RuntimeSec > j.LimitSec {
		// SLURM kills the job at its requested limit.
		j.RuntimeSec = j.LimitSec
	}
	s.queue = append(s.queue, j)
	s.schedule()
	return nil
}

// AdvanceTo processes completions up to time t and moves the clock.
func (s *Sim) AdvanceTo(t int64) {
	for len(s.running) > 0 && s.running[0].end <= t {
		j := heap.Pop(&s.running).(*simJob)
		s.now = j.end
		s.free += j.Nodes
		s.done = append(s.done, Placement{ID: j.ID, Submit: j.Submit, Start: j.start, End: j.end, Nodes: j.Nodes})
		s.schedule()
	}
	if t > s.now {
		s.now = t
	}
}

// Drain runs the simulation until every submitted job has completed and
// returns all placements in completion order.
func (s *Sim) Drain() []Placement {
	for len(s.running) > 0 || len(s.queue) > 0 {
		if len(s.running) == 0 {
			// Queue non-empty but nothing running: schedule() must start
			// something (the head always fits eventually on an idle
			// machine).
			s.schedule()
			continue
		}
		s.AdvanceTo(s.running[0].end)
	}
	return s.done
}

// Placements returns completions recorded so far, in completion order.
func (s *Sim) Placements() []Placement { return s.done }

// start begins executing job j at the current clock.
func (s *Sim) start(j *simJob) {
	j.running = true
	j.start = s.now
	j.end = s.now + j.RuntimeSec
	s.free -= j.Nodes
	heap.Push(&s.running, j)
}

// schedule starts queued jobs: FCFS head first, then EASY backfill —
// a later job may start now if it does not delay the head job's earliest
// possible start (the "shadow time").
func (s *Sim) schedule() {
	// Start head jobs while they fit.
	for len(s.queue) > 0 && s.queue[0].Nodes <= s.free {
		s.start(s.queue[0])
		s.queue = s.queue[1:]
	}
	if !s.Backfill || len(s.queue) == 0 || len(s.running) == 0 {
		return
	}
	// Compute the shadow time: walk running jobs in end order until the
	// head fits, tracking how many nodes are spare at that instant.
	head := s.queue[0]
	avail := s.free
	ends := make([]*simJob, len(s.running))
	copy(ends, s.running)
	sort.Slice(ends, func(i, j int) bool { return ends[i].end < ends[j].end })
	var shadow int64
	extra := 0
	for _, rj := range ends {
		avail += rj.Nodes
		if avail >= head.Nodes {
			shadow = rj.end
			extra = avail - head.Nodes
			break
		}
	}
	if shadow == 0 {
		return // head can never fit; guarded by Submit validation
	}
	// Backfill pass over the rest of the queue.
	kept := s.queue[:1]
	for _, j := range s.queue[1:] {
		canFill := j.Nodes <= s.free &&
			(s.now+j.RuntimeSec <= shadow || j.Nodes <= min(s.free, extra))
		if canFill {
			if j.Nodes <= extra {
				extra -= j.Nodes
			}
			s.start(j)
			continue
		}
		kept = append(kept, j)
	}
	s.queue = kept
}

// Clone deep-copies the simulator state — the paper's snapshot step.
// Completed placements are not carried over (the snapshot only needs the
// queued and running jobs).
func (s *Sim) Clone() *Sim {
	c := &Sim{nodes: s.nodes, free: s.free, now: s.now, Backfill: s.Backfill}
	c.queue = make([]*simJob, len(s.queue))
	for i, j := range s.queue {
		cp := *j
		c.queue[i] = &cp
	}
	c.running = make(runHeap, len(s.running))
	for i, j := range s.running {
		cp := *j
		c.running[i] = &cp
	}
	// The heap order of copies matches the original ordering.
	return c
}

// OverrideRuntimes replaces the runtime of every queued and running job
// using pred (keyed by job ID) — the paper's "replace the runtime of each
// job in execution and in the queue with the predicted job runtime".
// Runtimes remain clipped at each job's limit. For running jobs the new
// end time is start + predicted; if that is already past, the job ends at
// the current clock (it should have finished by now according to the
// prediction).
func (s *Sim) OverrideRuntimes(pred func(id int) int64) {
	for _, j := range s.queue {
		r := pred(j.ID)
		if j.LimitSec > 0 && r > j.LimitSec {
			r = j.LimitSec
		}
		if r < 1 {
			r = 1
		}
		j.RuntimeSec = r
	}
	for _, j := range s.running {
		r := pred(j.ID)
		if j.LimitSec > 0 && r > j.LimitSec {
			r = j.LimitSec
		}
		if r < 1 {
			r = 1
		}
		j.RuntimeSec = r
		j.end = j.start + r
		if j.end < s.now {
			j.end = s.now
		}
	}
	heap.Init(&s.running)
}

// RunUntilDone rolls the simulation forward (no further arrivals) until
// job id completes and returns its placement. The second return is false
// if the job is not present in the snapshot.
func (s *Sim) RunUntilDone(id int) (Placement, bool) {
	present := false
	for _, j := range s.queue {
		if j.ID == id {
			present = true
		}
	}
	for _, j := range s.running {
		if j.ID == id {
			present = true
		}
	}
	if !present {
		return Placement{}, false
	}
	for {
		if len(s.running) == 0 {
			if len(s.queue) == 0 {
				return Placement{}, false
			}
			s.schedule()
			if len(s.running) == 0 {
				return Placement{}, false
			}
		}
		next := s.running[0].end
		doneBefore := len(s.done)
		s.AdvanceTo(next)
		for _, p := range s.done[doneBefore:] {
			if p.ID == id {
				return p, true
			}
		}
	}
}
