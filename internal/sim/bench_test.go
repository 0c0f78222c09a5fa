package sim

import (
	"math/rand"
	"testing"
)

// benchDepth is the standing queue depth the schedule/drain benchmarks
// operate at: deep enough that heap sifts traverse several levels, and
// fixed so every iteration does the same work regardless of b.N (the
// old combined benchmark mixed scheduling and draining in an
// i%1024-dependent pattern, which made ns/op swing across -benchtime
// values).
const benchDepth = 1024

// BenchmarkKernelSchedule is the schedule-heavy half: each iteration
// pushes one event into a standing queue of benchDepth and pops one via
// Step, so the per-iteration work unit is exactly one push + one pop at
// constant depth.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	for i := 0; i < benchDepth; i++ {
		k.AfterCall(Time(i%997)*Microsecond, nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.AfterCall(Time(i%997)*Microsecond, nop, nil)
		k.Step()
	}
}

// BenchmarkKernelDrain is the drain-heavy half: batches of events are
// scheduled with the timer stopped, then Run drains them; only the
// drain is timed.
func BenchmarkKernelDrain(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for scheduled := 0; scheduled < b.N; {
		n := 1 << 14
		if n > b.N-scheduled {
			n = b.N - scheduled
		}
		b.StopTimer()
		for i := 0; i < n; i++ {
			k.AfterCall(Time(i%997)*Microsecond, nop, nil)
		}
		b.StartTimer()
		k.Run(k.Now() + Second)
		scheduled += n
	}
}

// BenchmarkKernelTickerHeavy measures the kernel's sustained event
// throughput on the in-place ticker re-arm path, one 1 ms ticker alone.
// Tickers are a small share of a real run's events: the hypervisor's
// 30 ms quantum ticker fires 20 k times in a paper-grid job of ~1 M
// events. BenchmarkKernelFarTimers has a sweep's queue shape. The CI
// bench-smoke job fails if this reports nonzero allocs/op.
func BenchmarkKernelTickerHeavy(b *testing.B) {
	k := NewKernel()
	count := 0
	k.Every(Millisecond, Millisecond, func(Time) { count++ })
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(Time(b.N) * Millisecond)
	if count < b.N-1 {
		b.Fatalf("ticker fired %d of %d", count, b.N)
	}
}

// BenchmarkKernelCancelReschedule exercises the CPU model's dominant
// pattern: a completion event moved in place on every submit.
func BenchmarkKernelCancelReschedule(b *testing.B) {
	k := NewKernel()
	e := k.AfterCall(Millisecond, nop, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Reschedule(k.Now() + Millisecond + Time(i%64)*Microsecond) {
			b.Fatal("completion event went stale")
		}
	}
}

// farModel is the state of BenchmarkKernelFarTimers' queue model.
type farModel struct {
	k          *Kernel
	r          *rand.Rand
	completion Event
}

// farThink is a think timer ending: the browser's request spawns µs–ms
// work, and the timer re-arms at Exp(7 s).
func farThink(arg any) {
	m := arg.(*farModel)
	for i := 0; i < 12; i++ {
		m.k.AfterCall(Time(m.r.ExpFloat64()*float64(500*Microsecond)), farWork, m)
	}
	m.k.AfterCall(Time(m.r.ExpFloat64()*float64(7*Second)), farThink, m)
}

// farWork is one unit of near-term work: it moves the shared completion
// event the way the CPU model does on every submit.
func farWork(arg any) {
	m := arg.(*farModel)
	at := m.k.Now() + Time(10+m.r.Intn(2000))*Microsecond
	if !m.completion.Reschedule(at) {
		m.completion = m.k.AtCall(at, nop, nil)
	}
}

// BenchmarkKernelFarTimers has the queue shape of a paper-grid job:
// 1000 emulated browsers each keep a think timer queued seconds ahead,
// re-armed at Exp(7 s) when it fires, while each request churns a dozen
// µs–ms events and a rescheduled completion. One iteration fires one
// event. The CI bench-smoke job fails if this reports nonzero allocs/op.
func BenchmarkKernelFarTimers(b *testing.B) {
	k := NewKernel()
	m := &farModel{k: k, r: rand.New(rand.NewSource(1))}
	for i := 0; i < 1000; i++ {
		k.AfterCall(Time(m.r.ExpFloat64()*float64(7*Second)), farThink, m)
	}
	k.Run(60 * Second) // warm the arena and reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// timeoutReq is one in-flight request of BenchmarkKernelTimeoutCancel.
type timeoutReq struct {
	k     *Kernel
	r     *rand.Rand
	timer Event
}

// timeoutSend arms the request's guard timeout and schedules its
// response within 1 ms.
func timeoutSend(q *timeoutReq) {
	q.timer = q.k.AfterCall(800*Millisecond, nop, nil)
	q.k.AfterCall(Time(1+q.r.Intn(int(Millisecond))), timeoutRespond, q)
}

// timeoutRespond is the response landing: it cancels the timeout and
// sends the next request.
func timeoutRespond(arg any) {
	q := arg.(*timeoutReq)
	q.timer.Cancel()
	timeoutSend(q)
}

// BenchmarkKernelTimeoutCancel has the guard-timeout pattern of the
// resilience layer: 64 requests each arm an 800 ms timer, and a response
// landing within 1 ms cancels it. One iteration fires one response. The
// CI bench-smoke job fails if this reports nonzero allocs/op.
func BenchmarkKernelTimeoutCancel(b *testing.B) {
	k := NewKernel()
	r := rand.New(rand.NewSource(1))
	reqs := make([]timeoutReq, 64)
	for i := range reqs {
		reqs[i] = timeoutReq{k: k, r: r}
		timeoutSend(&reqs[i])
	}
	k.Run(Second) // warm the arena and reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.StopTimer()
	if k.pending() != 2*len(reqs) {
		b.Fatalf("Pending = %d, want a timer and a response per request", k.pending())
	}
}
