// Package fixture exercises the directive meta-findings. ignore-reason:
// a suppression without " -- reason" still suppresses the named check
// but is itself reported, and cannot be self-suppressed. ignore-unknown:
// a name no registered checker has suppresses nothing and is reported.
package fixture

import "os"

func noReason(f *os.File) {
	f.Close() //prionnvet:ignore unchecked-err
}

func withReason(f *os.File) {
	f.Close() //prionnvet:ignore unchecked-err -- the file was opened read-only, so Close cannot lose data
}

func misspelt(f *os.File) {
	//prionnvet:ignore uncheked-err -- misspelt, so the call below is still reported
	f.Close()
}

func deleted(f *os.File) {
	f.Close() //prionnvet:ignore all,float-eq -- "all" silences unchecked-err here, not the report of a deleted checker's name
}
