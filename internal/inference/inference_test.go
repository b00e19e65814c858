package inference

import (
	"testing"

	"lyra/internal/metrics"
)

const week = 7 * 86400

func TestBaseUtilizationShape(t *testing.T) {
	// Figure 1: trough ~0.42 before dawn, peak ~0.95 in the evening.
	trough := BaseUtilization(5 * 3600)
	peak := BaseUtilization(20 * 3600)
	if trough < 0.35 || trough > 0.5 {
		t.Errorf("trough = %v, want ~0.42", trough)
	}
	if peak < 0.9 || peak > 1.0 {
		t.Errorf("peak = %v, want ~0.95", peak)
	}
	if ratio := peak / trough; ratio < 1.9 || ratio > 2.6 {
		t.Errorf("peak/trough = %v, want ~2.2", ratio)
	}
}

func TestBaseUtilizationContinuity(t *testing.T) {
	// No jumps larger than 10 points across 5-minute steps.
	prev := BaseUtilization(0)
	for s := int64(300); s < 86400; s += 300 {
		u := BaseUtilization(s)
		if d := u - prev; d > 0.1 || d < -0.1 {
			t.Fatalf("discontinuity at %ds: %v -> %v", s, prev, u)
		}
		prev = u
	}
}

func TestBaseUtilizationPeriodic(t *testing.T) {
	for _, s := range []int64{0, 3600, 43200, 80000} {
		if BaseUtilization(s) != BaseUtilization(s+86400) {
			t.Errorf("diurnal curve not 24h-periodic at %d", s)
		}
	}
}

func TestIsWeekend(t *testing.T) {
	// Day 0 is Thursday (Oct 1 2020); days 2 and 3 are the weekend.
	cases := map[int64]bool{0: false, 86400: false, 2 * 86400: true, 3 * 86400: true, 4 * 86400: false}
	for tm, want := range cases {
		if got := isWeekend(tm); got != want {
			t.Errorf("isWeekend(day %d) = %v, want %v", tm/86400, got, want)
		}
	}
}

func TestGenerateUtilizationCalibration(t *testing.T) {
	ts := GenerateUtilization(DefaultUtilizationConfig(1), week, 300)
	if len(ts.Values) != week/300 {
		t.Fatalf("samples = %d, want %d", len(ts.Values), week/300)
	}
	mean := ts.Mean()
	if mean < 0.58 || mean > 0.72 {
		t.Errorf("mean utilization = %v, want ~0.65 (Figure 1)", mean)
	}
	for i, v := range ts.Values {
		if v < 0 || v > 1 {
			t.Fatalf("sample %d = %v out of [0,1]", i, v)
		}
	}
}

func TestGenerateUtilizationDeterministic(t *testing.T) {
	a := GenerateUtilization(DefaultUtilizationConfig(7), 86400, 300)
	b := GenerateUtilization(DefaultUtilizationConfig(7), 86400, 300)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	c := GenerateUtilization(DefaultUtilizationConfig(8), 86400, 300)
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical series")
	}
}

func TestSchedulerUtilizationAtClamps(t *testing.T) {
	ts := metrics.NewTimeSeries(0, 300)
	ts.Append(0.5)
	ts.Append(0.9)
	s := NewScheduler(ts, 100, 0.02)
	if s.UtilizationAt(-100) != 0.5 {
		t.Error("before-start should clamp to first sample")
	}
	if s.UtilizationAt(1e9) != 0.9 {
		t.Error("past-end should clamp to last sample")
	}
	if s.UtilizationAt(300) != 0.9 {
		t.Error("exact sample lookup wrong")
	}
}

func TestSchedulerEmptySeries(t *testing.T) {
	s := NewScheduler(metrics.NewTimeSeries(0, 300), 100, 0.02)
	if s.UtilizationAt(0) != 1 {
		t.Error("empty series should report full utilization (nothing loanable)")
	}
	if s.TargetOnLoan(0) != 0 {
		t.Error("empty series should loan nothing")
	}
}

func TestTargetOnLoanHeadroom(t *testing.T) {
	ts := metrics.NewTimeSeries(0, 300)
	ts.Append(0.50)
	s := NewScheduler(ts, 100, 0.02)
	// idle = 1 - 0.5 - 0.02 = 0.48 -> 48 servers.
	if got := s.TargetOnLoan(0); got != 48 {
		t.Errorf("target = %d, want 48", got)
	}
	// Full utilization: nothing loanable even if headroom is zero.
	ts.Values[0] = 1.0
	if got := s.TargetOnLoan(0); got != 0 {
		t.Errorf("target at full load = %d, want 0", got)
	}
	// Utilization beyond 1-headroom yields zero, never negative.
	ts.Values[0] = 0.99
	if got := s.TargetOnLoan(0); got != 0 {
		t.Errorf("target with headroom violation = %d, want 0", got)
	}
}
