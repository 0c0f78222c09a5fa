package telemetry

import "testing"

// BenchmarkLatencyRecord times the two-histogram observation path the
// drivers sit on — one logarithm, two bin increments, a bounded
// reservoir append. The CI bench-smoke job gates this at 0 allocs/op
// beside the kernel ticker and arrival-scheduling gates.
func BenchmarkLatencyRecord(b *testing.B) {
	rec := NewRecorder(2)
	v := 0.0001
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.RecordKind(v, i&1 == 1, -1)
		v *= 1.000001
		if v > 100 {
			v = 0.0001
		}
	}
	if rec.RunHist().Count() != uint64(b.N) {
		b.Fatal("lost observations")
	}
}

// BenchmarkWindowRotate times closing one 2 s window: the core
// series' quantile walks over the touched bin range, one registered
// Counter and one registered Gauge, every series append, and the
// window reset. Gated at 0 allocs/op in CI (ReserveWindows covers the
// benchmark's windows, as experiment.Run's duration-derived reservation
// covers a run's).
func BenchmarkWindowRotate(b *testing.B) {
	rec := NewRecorder(2)
	var retries uint64
	rec.Counter(Retries, "retries/window", func() uint64 { return retries })
	rec.Gauge(QueueDepth, "writes", func() float64 { return float64(retries & 7) })
	rec.ReserveWindows(b.N + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A plausible window: a burst of mixed fast/slow responses.
		rec.RecordKind(0.004, false, -1)
		rec.RecordKind(0.009, false, -1)
		rec.RecordKind(0.012, false, -1)
		rec.RecordKind(0.250, false, -1)
		rec.NoteStart()
		rec.NoteEnd()
		retries += 3
		rec.Rotate(7)
	}
	if rec.Series().Windows() != b.N {
		b.Fatal("window count mismatch")
	}
}
