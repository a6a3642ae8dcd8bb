// Package metrics aggregates the evaluation quantities the paper
// reports: traffic cost, query response time, query success rate S(t),
// damage rate D(t), the three detection error counts, and damage
// recovery time.
package metrics

import (
	"fmt"

	"ddpolice/internal/flood"
	"ddpolice/internal/stats"
)

// MinuteStats summarizes one closed simulation minute.
type MinuteStats struct {
	Issued       int     // good queries issued (qw(t))
	Succeeded    int     // good queries with >= 1 hit (qs(t))
	QueryMsgs    float64 // query copies on the wire (good + attack)
	HitMsgs      float64 // QueryHit copies on the wire
	ControlMsgs  float64 // DD-POLICE control messages
	CapacityDrop float64 // queries discarded at saturated peers
	OnlinePeers  int
}

// SuccessRate returns qs(t)/qw(t), or 1 when no queries were issued
// (an idle system is not failing).
func (m MinuteStats) SuccessRate() float64 {
	if m.Issued == 0 {
		return 1
	}
	return float64(m.Succeeded) / float64(m.Issued)
}

// TrafficCost returns the minute's total message cost. The paper's
// "traffic cost is a function of consumed network bandwidth and other
// related expenses"; we count overlay message transmissions.
func (m MinuteStats) TrafficCost() float64 {
	return m.QueryMsgs + m.HitMsgs + m.ControlMsgs
}

// Collector accumulates per-minute statistics during a run.
type Collector struct {
	cur        MinuteStats
	minutes    []MinuteStats
	respTime   stats.Welford
	respSample *stats.Sample
	hops       stats.Welford
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{respSample: stats.NewSample(4096)}
}

// RecordQuery folds in one good-peer query flood result.
func (c *Collector) RecordQuery(res flood.QueryResult) {
	c.cur.Issued++
	c.cur.QueryMsgs += res.QueryMessages
	c.cur.HitMsgs += res.HitMessages
	c.cur.CapacityDrop += float64(res.CapacityDrops)
	if res.Hit {
		c.cur.Succeeded++
		c.respTime.Add(res.ResponseDelay)
		c.respSample.Add(res.ResponseDelay)
		c.hops.Add(float64(res.FirstHitHops))
	}
}

// RecordBatch folds in an attacker batch flood result.
func (c *Collector) RecordBatch(res flood.BatchResult) {
	c.cur.QueryMsgs += res.QueryMessages
	c.cur.CapacityDrop += res.CapacityDrops
}

// AddControl counts DD-POLICE control messages for the current minute.
func (c *Collector) AddControl(msgs float64) { c.cur.ControlMsgs += msgs }

// SetOnline records the online population at minute close.
func (c *Collector) SetOnline(n int) { c.cur.OnlinePeers = n }

// CloseMinute finalizes the current minute and starts the next.
func (c *Collector) CloseMinute() {
	c.minutes = append(c.minutes, c.cur)
	c.cur = MinuteStats{}
}

// Minutes returns the closed per-minute records.
func (c *Collector) Minutes() []MinuteStats { return c.minutes }

// MeanResponseTime returns the mean response delay of successful
// queries in seconds.
func (c *Collector) MeanResponseTime() float64 { return c.respTime.Mean() }

// ResponseTimeQuantile returns the q-quantile of response delay.
func (c *Collector) ResponseTimeQuantile(q float64) float64 { return c.respSample.Quantile(q) }

// MeanHitHops returns the mean hop distance to the first responder.
func (c *Collector) MeanHitHops() float64 { return c.hops.Mean() }

// OverallSuccessRate returns total qs / total qw across all minutes.
func (c *Collector) OverallSuccessRate() float64 {
	issued, succeeded := 0, 0
	for _, m := range c.minutes {
		issued += m.Issued
		succeeded += m.Succeeded
	}
	if issued == 0 {
		return 1
	}
	return float64(succeeded) / float64(issued)
}

// MeanTrafficPerMinute returns the mean per-minute traffic cost.
func (c *Collector) MeanTrafficPerMinute() float64 {
	if len(c.minutes) == 0 {
		return 0
	}
	var sum float64
	for _, m := range c.minutes {
		sum += m.TrafficCost()
	}
	return sum / float64(len(c.minutes))
}

// SuccessSeries returns S(t) per minute.
func (c *Collector) SuccessSeries() []float64 {
	out := make([]float64, len(c.minutes))
	for i, m := range c.minutes {
		out[i] = m.SuccessRate()
	}
	return out
}

// DamageSeries computes the paper's damage rate per minute:
// D(t) = (S(t) - S'(t)) / S(t) * 100%, where baseline is the success
// series without any attack and attacked the series under attack.
// Series are truncated to the shorter length; negative damage (attacked
// outperforming baseline through noise) clamps to 0.
func DamageSeries(baseline, attacked []float64) []float64 {
	n := len(baseline)
	if len(attacked) < n {
		n = len(attacked)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if baseline[i] <= 0 {
			out[i] = 0
			continue
		}
		d := (baseline[i] - attacked[i]) / baseline[i] * 100
		if d < 0 {
			d = 0
		}
		out[i] = d
	}
	return out
}

// RecoveryTime implements the paper's damage recovery time: "the time
// period from when the system damage rate D(t) is equal or greater
// than 20% until when the damage is equal or less than 15%", in the
// series' time unit (minutes). It returns an error if the damage never
// reaches the start threshold, and -1 recovery if it never recovers.
func RecoveryTime(damage []float64, startPct, endPct float64) (int, error) {
	start := -1
	for i, d := range damage {
		if d >= startPct {
			start = i
			break
		}
	}
	if start < 0 {
		return 0, fmt.Errorf("metrics: damage never reached %v%%", startPct)
	}
	for i := start; i < len(damage); i++ {
		if damage[i] <= endPct {
			return i - start, nil
		}
	}
	return -1, nil
}

// MeanTail returns the mean of the final fraction (0,1] of the series,
// used for "stabilized damage rate" comparisons.
func MeanTail(series []float64, fraction float64) float64 {
	if len(series) == 0 || fraction <= 0 {
		return 0
	}
	from := int(float64(len(series)) * (1 - fraction))
	if from < 0 {
		from = 0
	}
	var sum float64
	for _, v := range series[from:] {
		sum += v
	}
	return sum / float64(len(series)-from)
}
