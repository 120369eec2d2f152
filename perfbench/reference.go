package main

import (
	"math"
	"time"
)

// The host this benchmark was tuned on shares its CPUs: the same
// single-threaded loop times anywhere from 48 to 94 ms from one 50 ms
// sample to the next, and its speed drifts by 15–25% over minutes. Every
// workload therefore times a fixed reference kernel at its natural pauses
// (between selection runs, client segments or rounds, never during an
// operation), and the run's end-to-end times are scaled by the kernel's
// median: reported times are those the run would have measured with the
// kernel at refNominal. Across ten-run sets the scaled figures spread about
// half as much as the raw ones; the kernel is part of the benchmark, so no
// change to the program moves it.

// refNominal is the reference kernel's typical time on the reference
// machine (2 vCPUs, Go 1.24).
const refNominal = 12 * time.Millisecond

// refSink keeps the reference kernel's result live.
var refSink float64

// timeReference times referenceKernel and returns its wall time in ns.
func timeReference() float64 {
	t0 := time.Now()
	refSink += referenceKernel()
	return float64(time.Since(t0))
}

// referenceKernel is fixed single-threaded work: a million natural
// logarithms, the operation Naive Bayes scoring spends most of its time in.
func referenceKernel() float64 {
	s := 0.0
	for i := 1; i <= 1_000_000; i++ {
		s += math.Log(float64(i))
	}
	return s
}
