// Package fixture exercises the directive meta-findings. ignore-reason:
// a suppression without " -- reason" still suppresses the named check
// but is itself reported, and cannot be self-suppressed. ignore-unknown:
// a name no registered checker has suppresses nothing and is reported.
package fixture

func compare(a, b float64) bool {
	return a == b //prionnvet:ignore float-eq
}

func alsoBad(a, b float64) bool {
	return a == b //prionnvet:ignore float-eq -- exact sentinel comparison, set by the same code path
}

func misspelt(a, b float64) bool {
	//prionnvet:ignore flaot-eq -- misspelt, so the comparison below is still reported
	return a == b
}

func deleted(a, b float64) bool {
	return a == b //prionnvet:ignore all,lock-held-io -- "all" silences float-eq here, not the report of the name no checker has
}
