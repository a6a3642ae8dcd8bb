// Package capacity models a peer's query-processing capability as a
// token bucket. The paper calibrates this with a real testbed (§2.3,
// Figs 4-6): a LimeWire peer on a P3-733 began discarding queries when
// offered ~15,000 queries/min and dropped 47% when offered ~29,000/min
// (i.e. it saturates at roughly 15k/min when dedicated); the paper then
// conservatively assumes a good peer in the wild processes 10,000
// queries/min, while a bad peer can generate 20,000/min.
package capacity

import "fmt"

// Paper calibration constants (queries per minute).
const (
	// TestbedSaturationPerMin is the processing rate at which the
	// dedicated testbed peer saturated (Figs 5-6).
	TestbedSaturationPerMin = 15000
	// BadPeerIssuePerMin is the assumed generation rate of a DDoS agent.
	BadPeerIssuePerMin = 20000
)

// Processor is a token-bucket query processor. Tokens accrue at the
// processing rate and each accepted query consumes one token; queries
// offered when the bucket is empty are dropped, exactly like peer B
// discarding queries in the paper's testbed.
type Processor struct {
	ratePerSec float64
	burst      float64
	tokens     float64
	processed  float64
	dropped    float64
}

// NewProcessor creates a processor with the given sustained rate
// (queries/min) and burst tolerance (queries). Burst defaults to one
// second of capacity when <= 0.
//
// A non-positive rate is clamped to 0 (mirroring flood.Budget.take's
// zero clamp): the processor is valid but accrues no tokens, so every
// offered query is dropped and DropRate reports 1 once traffic has
// been offered. This is the brownout limit of the faults plane — a
// peer whose capacity has been scaled to nothing still accounts for
// the queries it sheds.
//
// A *positive* rate always gets a bucket depth of at least one token:
// a sub-60/min rate used to default burst to ratePerSec < 1, so the
// bucket could never hold a whole token and TryProcess starved the
// peer forever despite its positive sustained rate (the paper's slow
// 100 Kbps class, or a classed processor's control reserve at a modest
// rate, must process slowly, not never). The same floor applies to
// explicit sub-1.0 bursts, so a discrete consumer drains slowly instead
// of rounding to zero.
func NewProcessor(ratePerMin, burst float64) (*Processor, error) {
	if ratePerMin < 0 {
		ratePerMin = 0
	}
	p := &Processor{ratePerSec: ratePerMin / 60}
	if burst <= 0 {
		burst = p.ratePerSec
	}
	if p.ratePerSec > 0 && burst < 1 {
		burst = 1
	}
	p.burst = burst
	p.tokens = burst
	return p, nil
}

// Tick accrues dt seconds of processing tokens.
func (p *Processor) Tick(dt float64) {
	p.tokens += p.ratePerSec * dt
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
}

// Offer presents n queries (fractional allowed, for fluid batches) and
// returns how many were processed; the remainder is dropped. Accepted
// is clamped at zero (the Budget.take clamp), so a drained — or
// zero-rate — bucket drops the whole batch and the processed/dropped
// ledgers always agree with what DropRate reports.
func (p *Processor) Offer(n float64) (accepted float64) {
	if n <= 0 {
		return 0
	}
	accepted = n
	if accepted > p.tokens {
		accepted = p.tokens
	}
	if accepted < 0 {
		accepted = 0
	}
	p.tokens -= accepted
	p.processed += accepted
	p.dropped += n - accepted
	return accepted
}

// TryProcess attempts to process a single query, reporting success.
func (p *Processor) TryProcess() bool {
	if p.tokens >= 1 {
		p.tokens--
		p.processed++
		return true
	}
	p.dropped++
	return false
}

// Processed returns the cumulative accepted count.
func (p *Processor) Processed() float64 { return p.processed }

// DropRate returns dropped/(processed+dropped), or 0 if idle.
func (p *Processor) DropRate() float64 {
	total := p.processed + p.dropped
	if total == 0 {
		return 0
	}
	return p.dropped / total
}

// ClassedProcessor splits one peer's processing capacity into a small
// protected control reserve and a bulk query budget, so a query flood
// can exhaust the query tokens without starving the control plane the
// detection pipeline depends on. Control work draws its own reserve
// first and may borrow idle query tokens; query work never touches the
// reserve — strict priority in the direction that matters.
type ClassedProcessor struct {
	control Processor
	query   Processor
}

// NewClassedProcessor splits ratePerMin into a controlFrac reserve and
// a (1-controlFrac) query budget, each its own token bucket holding one
// second of its rate; controlFrac must be in (0, 1).
func NewClassedProcessor(ratePerMin, controlFrac float64) (*ClassedProcessor, error) {
	if controlFrac <= 0 || controlFrac >= 1 {
		return nil, fmt.Errorf("capacity: control fraction %v outside (0, 1)", controlFrac)
	}
	ctl, err := NewProcessor(ratePerMin*controlFrac, 0)
	if err != nil {
		return nil, err
	}
	qry, err := NewProcessor(ratePerMin*(1-controlFrac), 0)
	if err != nil {
		return nil, err
	}
	return &ClassedProcessor{control: *ctl, query: *qry}, nil
}

// Tick accrues dt seconds of tokens in both buckets.
func (cp *ClassedProcessor) Tick(dt float64) {
	cp.control.Tick(dt)
	cp.query.Tick(dt)
}

// TryProcessQuery attempts to process one query message from the bulk
// budget only; the control reserve is never borrowed downward.
func (cp *ClassedProcessor) TryProcessQuery() bool {
	return cp.query.TryProcess()
}

// TryProcessControl attempts to process one control message: the
// reserve first, then an idle query token. Only a node with *both*
// buckets dry sheds control work — the last resort.
func (cp *ClassedProcessor) TryProcessControl() bool {
	if cp.control.tokens >= 1 {
		cp.control.tokens--
		cp.control.processed++
		return true
	}
	if cp.query.tokens >= 1 {
		cp.query.tokens--
		cp.control.processed++
		return true
	}
	cp.control.dropped++
	return false
}

// SaturationPoint measures one offered-load level: it simulates
// durationSec seconds of a constant offered rate (queries/min) against
// a fresh processor and reports the achieved processing rate and drop
// rate — one X position of Figs 5 and 6.
type SaturationPoint struct {
	OfferedPerMin   float64
	ProcessedPerMin float64
	DropRate        float64
}

// SaturationCurve sweeps offered load levels against a processor with
// the given capacity, regenerating the data behind Figs 5 and 6.
func SaturationCurve(capacityPerMin float64, offeredPerMin []float64, durationSec int) ([]SaturationPoint, error) {
	if durationSec <= 0 {
		return nil, fmt.Errorf("capacity: non-positive duration %d", durationSec)
	}
	out := make([]SaturationPoint, 0, len(offeredPerMin))
	for _, offered := range offeredPerMin {
		p, err := NewProcessor(capacityPerMin, 0)
		if err != nil {
			return nil, err
		}
		perSec := offered / 60
		for s := 0; s < durationSec; s++ {
			p.Tick(1)
			p.Offer(perSec)
		}
		out = append(out, SaturationPoint{
			OfferedPerMin:   offered,
			ProcessedPerMin: p.Processed() / float64(durationSec) * 60,
			DropRate:        p.DropRate(),
		})
	}
	return out, nil
}

// EffectiveForwardPerMin is the calibrated per-peer effective
// forwarding rate (queries/min) used by the overlay simulator's
// contention model. A peer's local lookup engine sustains the paper's
// assumed 10,000 queries/min (§2.3, end), but the rate at which it can
// usefully relay query messages onward is bounded by its share of
// access-link bandwidth (the paper's [19] bandwidth classes put 22% of
// peers at <= 100 Kbps). The simulator uses this single effective bottleneck for
// flood propagation; DESIGN.md ("Calibration") documents the sweep that
// selected it so that agent indicators separate from good-peer
// indicators exactly over the paper's CT range.
const EffectiveForwardPerMin = 1000
