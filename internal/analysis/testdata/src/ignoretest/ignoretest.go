// Package fault (under its real name) is golden input for the ignore
// directive: a simulation-package file where some wall-clock reads are
// documented injectable-clock seams.
package fault

import "time"

// Allowed pattern: the directive on the preceding line suppresses the
// finding and records why the exception is safe.
//
//lint:helmvet-ignore determinism default clock seam, tests inject a stub
func wallClockSeam() int64 { return time.Now().UnixNano() }

//lint:helmvet-ignore all grandfathered helper pending refactor
func allIgnored() int64 { return time.Now().UnixNano() }

func sameLine() int64 {
	return time.Now().UnixNano() //lint:helmvet-ignore determinism same-line seam annotation
}

func unprotected() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func wrongAnalyzer() int64 {
	//lint:helmvet-ignore ctxflow directive names a different analyzer
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

// A directive whose finding went away suppresses nothing; it is dead.
//
//lint:helmvet-ignore determinism stale seam, the clock read below was removed // want "directive for determinism is dead"
func fixedSeam() int64 { return 42 }
