package workloads

import (
	"math"

	"pmc/internal/sim"
	"pmc/internal/stats"
)

// Open-loop service machinery shared by the server, kvstore, and stream
// workloads: a deterministic Poisson arrival schedule and per-worker
// service meters.
//
// Arrivals are open-loop (the schedule does not react to completion
// times): requests keep arriving at the offered load even when the
// platform falls behind, which is what makes tail latency meaningful.
// The schedule is computed in Setup, outside simulated time, and is a
// pure function of (seed, count, load) — identical for every backend and
// worker count.

// expQ16 tabulates -ln((i+0.5)/4096) in Q16 fixed point: the inverse-CDF
// quantiles of the exponential distribution at 4096 levels. Sampling
// reduces to one table lookup and integer multiply, so schedule
// generation never does runtime floating-point math.
var expQ16 [4096]uint32

func init() {
	for i := range expQ16 {
		expQ16[i] = uint32(math.Round(-65536 * math.Log((float64(i)+0.5)/4096)))
	}
}

// poissonArrivals returns n cumulative arrival times with exponential
// interarrival gaps of mean 1000/load cycles (load = offered requests
// per kilocycle).
func poissonArrivals(seed uint32, n int, load float64) []sim.Time {
	if load <= 0 {
		load = 1
	}
	meanGapQ16 := uint64(math.Round(1000 * 65536 / load))
	r := newRand(seed)
	at := make([]sim.Time, n)
	var t uint64
	for i := range at {
		u := r.next() & 4095
		t += (meanGapQ16 * uint64(expQ16[u])) >> 32
		at[i] = sim.Time(t)
	}
	return at
}

// svcMeters collects per-worker Service metrics. Each worker records
// only into its own slot (no cross-worker mutation inside the
// simulation); merged() folds the slots element-wise, which is
// order-independent, so the merged Service is identical however the
// simulation interleaved the workers.
type svcMeters struct {
	interval sim.Time
	per      []*stats.Service
}

func newSvcMeters(workers int, interval sim.Time) *svcMeters {
	m := &svcMeters{interval: interval, per: make([]*stats.Service, workers)}
	for i := range m.per {
		m.per[i] = stats.NewService(interval)
	}
	return m
}

// record logs one completed request for worker w: scheduled arrival,
// service start (after queueing), and completion time.
func (m *svcMeters) record(w int, arrive, start, done sim.Time) {
	s := m.per[w]
	s.Completed++
	s.Latency.Add(uint64(done - arrive))
	s.Series.RecordDone(done)
	s.Series.RecordBusy(done, done-start)
}

// merged folds all worker meters into one Service with the offered count
// filled in.
func (m *svcMeters) merged(offered int) *stats.Service {
	out := stats.NewService(m.interval)
	out.Offered = uint64(offered)
	for _, s := range m.per {
		out.Merge(s)
	}
	return out
}

// SetLoad overrides the offered load (requests per kilocycle) on a service
// workload instance and reports whether app is one. Closed-loop workloads
// have no offered-load knob and return false unchanged.
func SetLoad(app App, load float64) bool {
	switch a := app.(type) {
	case *Server:
		a.Load = load
	case *KVStore:
		a.Load = load
	case *Stream:
		a.Load = load
	default:
		return false
	}
	return true
}
