// Package sim provides the deterministic discrete-event kernel that underlies
// the simulated RDMA fabric: a virtual nanosecond clock, FCFS queueing
// resources, bandwidth pipes, and a closed-loop multi-client driver.
//
// Everything in the repository that reports latency or throughput derives its
// numbers from this package, so runs are bit-identical across machines and
// immune to host scheduling noise.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual duration to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with an adaptive unit, e.g. "1.16us" or "2.5ms".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 10*Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < 10*Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// MaxTime is the largest representable virtual time.
const MaxTime Time = 1<<63 - 1

// TransferTime returns the serialization delay of size bytes over a link of
// the given bandwidth in bytes per second.
func TransferTime(size int, bytesPerSecond float64) Duration {
	if size <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	return Duration(float64(size) / bytesPerSecond * float64(Second))
}
