package trace

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// replayJob builds a job submitted at submit that ends at end.
func replayJob(submit, end int64, canceled bool) Job {
	return Job{SubmitTime: submit, ActualSec: end - submit, Canceled: canceled}
}

type replayCall struct {
	i   int
	win []int
}

// replayLog replays jobs and records every retrain (with a copy of its
// window) and every predict.
func replayLog(t *testing.T, jobs []Job, every, window int) (retrains []replayCall, predicts []int) {
	t.Helper()
	err := Replay(context.Background(), jobs, every, window, func(i int, win []int) error {
		retrains = append(retrains, replayCall{i, append([]int(nil), win...)})
		return nil
	}, func(i int) { predicts = append(predicts, i) })
	if err != nil {
		t.Fatal(err)
	}
	return retrains, predicts
}

// TestReplayTiesInSubmissionOrder: fifteen jobs end in the same second,
// interleaved in submission order with jobs that end earlier, so the
// completion sort has to move them. More than twelve elements take Go's
// unstable sort past its insertion-sort cutoff, where it may reorder
// equal keys; Replay must hand the tied jobs over in submission order.
func TestReplayTiesInSubmissionOrder(t *testing.T) {
	var jobs []Job
	var early, tied []int
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			jobs = append(jobs, replayJob(int64(i), 100, false))
			tied = append(tied, i)
		} else {
			jobs = append(jobs, replayJob(int64(i), int64(i)+1, false))
			early = append(early, i)
		}
	}
	jobs = append(jobs, replayJob(100, 1000, false))

	retrains, _ := replayLog(t, jobs, len(jobs), 100)
	want := []replayCall{{30, append(early, tied...)}}
	if !reflect.DeepEqual(retrains, want) {
		t.Fatalf("retrains %v, want %v", retrains, want)
	}
}

// TestReplayScheduleAtTiedWindowBoundary pins the cadence, the window
// cut through a tied group, and which submissions are predicted.
func TestReplayScheduleAtTiedWindowBoundary(t *testing.T) {
	jobs := []Job{
		replayJob(0, 10, false), // 0–5 all end at 10
		replayJob(1, 10, false),
		replayJob(2, 10, false),
		replayJob(3, 10, false),
		replayJob(4, 10, false),
		replayJob(5, 10, false),
		replayJob(6, 6, true),     // 6: canceled, never completes
		replayJob(8, 108, false),  // 7
		replayJob(10, 110, false), // 8: 0–5 have completed
		replayJob(11, 12, false),  // 9: completes at submission 10
		replayJob(12, 112, true),  // 10: canceled, not predicted
		replayJob(13, 113, false), // 11
		replayJob(14, 114, false), // 12
	}
	retrains, predicts := replayLog(t, jobs, 3, 4)

	// Submissions 0–7 see no completion (job 6 is canceled), so the
	// retrain due at submission 2 waits for submission 8, and its window
	// is the last four of the tied group. The next falls three
	// submissions later and slides past job 2 to take job 9.
	wantRetrains := []replayCall{{8, []int{2, 3, 4, 5}}, {11, []int{3, 4, 5, 9}}}
	if !reflect.DeepEqual(retrains, wantRetrains) {
		t.Fatalf("retrains %v, want %v", retrains, wantRetrains)
	}
	if want := []int{8, 9, 11, 12}; !reflect.DeepEqual(predicts, want) {
		t.Fatalf("predicts %v, want %v", predicts, want)
	}
}

// TestReplayCanceledContext: a context canceled before the replay stops
// it at the first submission; one canceled by a retrain stops it at the
// next.
func TestReplayCanceledContext(t *testing.T) {
	jobs := []Job{replayJob(0, 1, false), replayJob(2, 3, false), replayJob(4, 5, false), replayJob(6, 7, false)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Replay(ctx, jobs, 1, 10, func(int, []int) error {
		t.Fatal("retrain after cancellation")
		return nil
	}, func(int) { t.Fatal("predict after cancellation") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var retrains []int
	err = Replay(ctx, jobs, 1, 10, func(i int, _ []int) error {
		retrains = append(retrains, i)
		cancel()
		return nil
	}, func(int) {})
	if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(retrains, []int{1}) {
		t.Fatalf("got %v after retrains %v, want context.Canceled after [1]", err, retrains)
	}
}

// TestReplayReturnsRetrainError: the first retrain error ends the replay
// and comes back unwrapped.
func TestReplayReturnsRetrainError(t *testing.T) {
	jobs := []Job{replayJob(0, 1, false), replayJob(2, 3, false), replayJob(4, 5, false)}
	errFit := errors.New("fit failed")
	calls := 0
	err := Replay(context.Background(), jobs, 1, 10, func(int, []int) error {
		calls++
		return errFit
	}, func(int) { t.Fatal("predict after a failed retrain") })
	if err != errFit || calls != 1 {
		t.Fatalf("got %v after %d retrains, want errFit after 1", err, calls)
	}
}
