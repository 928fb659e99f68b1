// Package fixture triggers naked-goroutine and bare-panic-goroutine on
// ONE go statement. launch-dedupe's test pins that RunAll reports each
// check exactly once at that position — two findings total, never four.
package fixture

func doWork() error { return nil }

// StartLeaky launches a goroutine that is simultaneously unjoined
// (naked-goroutine: the spawner never receives from errs) and able to
// panic with no recover (bare-panic-goroutine).
func StartLeaky() {
	errs := make(chan error)
	go func() {
		err := doWork()
		if err != nil {
			panic(err)
		}
		errs <- err
	}()
}
