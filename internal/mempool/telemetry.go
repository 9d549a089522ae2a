package mempool

// Mempool observability: admission/rejection/eviction counters, pool
// pressure gauges, and transaction lifecycle events. All collectors are
// nil until SetTelemetry is called (before first use); every telemetry
// type no-ops on nil.

import (
	"errors"

	"typecoin/internal/chain"
	"typecoin/internal/telemetry"
)

type poolTelemetry struct {
	tracer *telemetry.Tracer
	spans  *telemetry.SpanStore

	accepted  *telemetry.Counter
	rejected  *telemetry.CounterVec // by policy reason
	evicted   *telemetry.Counter    // capacity evictions (incl. cascaded descendants)
	mined     *telemetry.Counter    // left the pool by confirming
	conflicts *telemetry.Counter    // removed because a confirmed tx spent their inputs
	recycled  *telemetry.Counter    // re-admitted from a disconnected block
}

// SetTelemetry registers the pool's metrics on reg and routes tx
// lifecycle events to tr. Call once, before accepting transactions;
// either argument may be nil.
func (p *Pool) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	p.tel = poolTelemetry{
		tracer:    tr,
		accepted:  reg.Counter("mempool_accepted_total", "Transactions admitted to the pool."),
		rejected:  reg.CounterVec("mempool_rejected_total", "Transactions refused admission, by policy reason.", "reason"),
		evicted:   reg.Counter("mempool_evicted_total", "Transactions evicted for capacity (including cascaded descendants)."),
		mined:     reg.Counter("mempool_mined_total", "Pooled transactions that left by confirming in a block."),
		conflicts: reg.Counter("mempool_conflicts_total", "Pooled transactions removed because a confirmed transaction spent their inputs."),
		recycled:  reg.Counter("mempool_recycled_total", "Transactions re-admitted from disconnected blocks during reorgs."),
	}
	reg.GaugeFunc("mempool_size", "Transactions currently pooled.", func() float64 {
		return float64(p.Size())
	})
	reg.GaugeFunc("mempool_bytes", "Serialized bytes of pooled transactions.", func() float64 {
		return float64(p.Bytes())
	})
	reg.GaugeFunc("mempool_fee_floor", "Dynamic eviction fee floor in satoshi per kB (0 = inactive).", func() float64 {
		return float64(p.FeeFloor())
	})
}

// SetSpans routes commitment-latency span stages to s: acceptance
// creates a transaction's span (the chain's connect marks it mined).
// Call once, before accepting transactions; s may be nil (the default).
func (p *Pool) SetSpans(s *telemetry.SpanStore) {
	p.tel.spans = s
}

// rejectReason maps an admission error onto a bounded label set. The
// label cardinality must stay fixed, so unknown errors fold into
// "invalid".
func rejectReason(err error) string {
	switch {
	case errors.Is(err, ErrAlreadyKnown):
		return "duplicate"
	case errors.Is(err, ErrNonStandard):
		return "non_standard"
	case errors.Is(err, ErrPoolConflict):
		return "conflict"
	case errors.Is(err, ErrOrphanTx):
		return "orphan"
	case errors.Is(err, ErrFeeTooLow), errors.Is(err, chain.ErrInsufficientFee):
		return "fee_too_low"
	case errors.Is(err, ErrCoinbaseInPool):
		return "coinbase"
	case errors.Is(err, ErrMempoolFull):
		return "full"
	case errors.Is(err, ErrDegraded):
		return "degraded"
	}
	return "invalid"
}
