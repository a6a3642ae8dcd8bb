package metrics

import (
	"math"
	"testing"

	"ddpolice/internal/flood"
)

func hitResult(delay float64, hops int, msgs float64) flood.QueryResult {
	return flood.QueryResult{
		Hit: true, FirstHitHops: hops, ResponseDelay: delay,
		QueryMessages: msgs, HitMessages: float64(hops),
	}
}

func missResult(msgs float64, drops int) flood.QueryResult {
	return flood.QueryResult{FirstHitHops: -1, QueryMessages: msgs, CapacityDrops: drops}
}

func TestCollectorMinuteAccounting(t *testing.T) {
	c := NewCollector()
	c.RecordQuery(hitResult(0.2, 2, 100))
	c.RecordQuery(hitResult(0.4, 4, 150))
	c.RecordQuery(missResult(50, 3))
	c.RecordBatch(flood.BatchResult{QueryMessages: 1000, CapacityDrops: 200})
	c.AddControl(25)
	c.SetOnline(42)
	c.CloseMinute()

	ms := c.Minutes()
	if len(ms) != 1 {
		t.Fatalf("minutes = %d", len(ms))
	}
	m := ms[0]
	if m.Issued != 3 || m.Succeeded != 2 {
		t.Fatalf("issued=%d succeeded=%d", m.Issued, m.Succeeded)
	}
	if got := m.SuccessRate(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("success rate = %v", got)
	}
	if m.QueryMsgs != 1300 {
		t.Fatalf("query msgs = %v", m.QueryMsgs)
	}
	if m.HitMsgs != 6 {
		t.Fatalf("hit msgs = %v", m.HitMsgs)
	}
	if m.ControlMsgs != 25 || m.OnlinePeers != 42 {
		t.Fatalf("control=%v online=%d", m.ControlMsgs, m.OnlinePeers)
	}
	if m.CapacityDrop != 203 {
		t.Fatalf("capacity drops = %v", m.CapacityDrop)
	}
	if got := m.TrafficCost(); got != 1300+6+25 {
		t.Fatalf("traffic cost = %v", got)
	}
}

func TestCollectorResponseStats(t *testing.T) {
	c := NewCollector()
	for _, d := range []float64{0.1, 0.2, 0.3, 0.4} {
		c.RecordQuery(hitResult(d, 2, 10))
	}
	c.RecordQuery(missResult(10, 0)) // misses must not pollute delay stats
	c.CloseMinute()
	if got := c.MeanResponseTime(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("mean response = %v", got)
	}
	if got := c.ResponseTimeQuantile(1); got != 0.4 {
		t.Fatalf("max response = %v", got)
	}
	if got := c.MeanHitHops(); got != 2 {
		t.Fatalf("mean hops = %v", got)
	}
}

func TestOverallSuccessAndTraffic(t *testing.T) {
	c := NewCollector()
	c.RecordQuery(hitResult(0.1, 1, 10))
	c.CloseMinute()
	c.RecordQuery(missResult(20, 0))
	c.RecordQuery(missResult(20, 0))
	c.CloseMinute()
	if got := c.OverallSuccessRate(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("overall success = %v", got)
	}
	// Traffic: minute 1 = 10 + 1 hit msg; minute 2 = 40.
	if got := c.MeanTrafficPerMinute(); math.Abs(got-25.5) > 1e-12 {
		t.Fatalf("mean traffic = %v", got)
	}
	s := c.SuccessSeries()
	if len(s) != 2 || s[0] != 1 || math.Abs(s[1]) > 1e-12 {
		t.Fatalf("series = %v", s)
	}
}

func TestEmptyMinuteSuccessRateIsOne(t *testing.T) {
	c := NewCollector()
	c.CloseMinute()
	if got := c.Minutes()[0].SuccessRate(); got != 1 {
		t.Fatalf("idle success rate = %v", got)
	}
	if got := c.OverallSuccessRate(); got != 1 {
		t.Fatalf("idle overall = %v", got)
	}
	if got := NewCollector().MeanTrafficPerMinute(); got != 0 {
		t.Fatalf("empty traffic = %v", got)
	}
}

func TestDamageSeries(t *testing.T) {
	baseline := []float64{0.9, 0.9, 0.9, 0.9}
	attacked := []float64{0.9, 0.45, 0.09, 0.95}
	d := DamageSeries(baseline, attacked)
	want := []float64{0, 50, 90, 0} // last clamps at 0
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-9 {
			t.Fatalf("damage[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestDamageSeriesLengthsAndZeros(t *testing.T) {
	d := DamageSeries([]float64{0.5, 0.5, 0.5}, []float64{0.25})
	if len(d) != 1 || d[0] != 50 {
		t.Fatalf("truncated damage = %v", d)
	}
	d = DamageSeries([]float64{0}, []float64{0})
	if d[0] != 0 {
		t.Fatalf("zero-baseline damage = %v", d)
	}
}

func TestRecoveryTime(t *testing.T) {
	damage := []float64{0, 5, 30, 80, 60, 25, 14, 10}
	got, err := RecoveryTime(damage, 20, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 { // index 2 (first >= 20) to index 6 (first <= 15)
		t.Fatalf("recovery = %d, want 4", got)
	}
}

func TestRecoveryTimeNeverDamaged(t *testing.T) {
	if _, err := RecoveryTime([]float64{0, 5, 10}, 20, 15); err == nil {
		t.Fatal("expected error when damage never starts")
	}
}

func TestRecoveryTimeNeverRecovers(t *testing.T) {
	got, err := RecoveryTime([]float64{50, 60, 70}, 20, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got != -1 {
		t.Fatalf("recovery = %d, want -1 sentinel", got)
	}
}

func TestMeanTail(t *testing.T) {
	series := []float64{100, 100, 10, 20}
	if got := MeanTail(series, 0.5); got != 15 {
		t.Fatalf("tail mean = %v", got)
	}
	if got := MeanTail(series, 1); got != 57.5 {
		t.Fatalf("full mean = %v", got)
	}
	if got := MeanTail(nil, 0.5); got != 0 {
		t.Fatalf("empty tail = %v", got)
	}
}
