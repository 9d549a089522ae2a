package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/client"
	"typecoin/internal/clock"
	"typecoin/internal/index"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/p2p"
	"typecoin/internal/sigcache"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// Daemon defaults the stack reproduces (cmd/typecoind flags).
const (
	storeRetries = 5 // -store-retries
	minConf      = 1 // -minconf
)

// subscriberNames are the chain subscribers in the order the daemon
// registers them; a probe subscriber sits before the first and after
// each, so consecutive probes bracket one subscriber.
var subscriberNames = []string{"index.notify", "mempool.notify", "wallet.notify", "ledger.notify", "p2p.notify"}

// stack is one node wired exactly as cmd/typecoind's run() wires a
// persistent node with group commit: store.File, store.Group and
// store.Retry; chain, index, mempool, wallet, ledger, miner and p2p
// node; the telemetry registry, tracer and span store. Only the clock
// differs: chain, mempool and miner share a simulated clock that the
// benchmark advances one target spacing per block.
type stack struct {
	dir    string
	file   *store.File
	group  *store.Group
	st     store.Store
	ch     *chain.Chain
	ix     *index.Indexer
	pool   *mempool.Pool
	wallet *wallet.Wallet
	ledger *typecoin.Ledger
	miner  *miner.Miner
	node   *p2p.Node
	cl     *client.Client
	reg    *telemetry.Registry
	payout bkey.Principal
	probes *probes

	// kick wakes a goroutine waiting for this node to make progress; the
	// flush and mempool-accept hooks and the last subscriber probe send
	// on it.
	kick chan struct{}

	mu        sync.Mutex
	flushes   int
	batches   int
	flushLags []time.Duration
	faults    []string
}

// openStack opens a node over a fresh data directory. entropy seeds the
// wallet's keys; tr receives the subscriber probes' spans (nil for a
// node that runs off the generator goroutine).
func openStack(dir string, clk *clock.Simulated, interval time.Duration, entropy io.Reader, tr *tracer) (_ *stack, err error) {
	s := &stack{dir: dir, kick: make(chan struct{}, 1)}
	if s.file, err = store.OpenFile(dir); err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	s.group = store.NewGroup(s.file, store.GroupConfig{Interval: interval, SyncEvery: 0})
	s.st = store.NewRetry(s.group, store.RetryConfig{Attempts: storeRetries})
	defer func() {
		if err != nil {
			s.st.Close()
		}
	}()

	if s.ch, err = chain.Open(chain.Config{
		Params:   chain.RegTestParams(),
		Clock:    clk,
		SigCache: sigcache.New(sigcache.DefaultCapacity),
		Store:    s.st,
	}); err != nil {
		return nil, fmt.Errorf("open chain: %w", err)
	}
	ch := s.ch
	s.probes = &probes{tr: tr, kick: s.kick}
	ch.Subscribe(s.probes.at(0))
	if s.ix, err = index.Open(ch); err != nil {
		return nil, fmt.Errorf("open index: %w", err)
	}
	ch.Subscribe(s.probes.at(1))
	s.pool = mempool.New(ch, -1)
	s.pool.SetOnAccept(func(tx *wire.MsgTx) {
		// The daemon's hook, then a wake-up for relay waits.
		s.ix.PublishTx(tx)
		kick(s.kick)
	})
	ch.Subscribe(s.probes.at(2))
	if s.wallet, err = wallet.Open(ch, entropy); err != nil {
		return nil, fmt.Errorf("open wallet: %w", err)
	}
	ch.Subscribe(s.probes.at(3))
	if s.ledger, err = typecoin.OpenLedger(ch, minConf); err != nil {
		return nil, fmt.Errorf("open ledger: %w", err)
	}
	ch.Subscribe(s.probes.at(4))
	if s.payout, err = s.wallet.NewKey(); err != nil {
		return nil, fmt.Errorf("create key: %w", err)
	}
	if _, _, err = s.pool.Restore(s.wallet.ObserveUnconfirmed); err != nil {
		return nil, fmt.Errorf("mempool restore: %w", err)
	}
	if err = ch.AuditFromGenesis(); err != nil {
		return nil, fmt.Errorf("startup audit: %w", err)
	}
	if err = s.ledger.AuditAffine(); err != nil {
		return nil, fmt.Errorf("startup ledger audit: %w", err)
	}
	s.miner = miner.New(ch, s.pool, clk)
	logger := telemetry.Component(telemetry.NewLogger(io.Discard, slog.LevelInfo, false), "p2p")
	s.node = p2p.NewNode(ch, s.pool, logger)
	s.node.SetLedger(s.ledger)
	ch.Subscribe(s.probes.at(5))
	s.cl = client.New(ch, s.pool, s.wallet, s.ledger)
	s.wireTelemetry(dir)
	return s, nil
}

// wireTelemetry registers the daemon's default telemetry: one registry,
// tracer and span store shared by every subsystem, the store gauges,
// the group-commit flush hook and the store health hooks.
func (s *stack) wireTelemetry(dir string) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultTraceCapacity, clock.System{})
	s.ch.SetTelemetry(reg, tracer)
	s.pool.SetTelemetry(reg, tracer)
	s.miner.SetTelemetry(reg)
	s.node.SetTelemetry(reg, tracer)
	s.ix.SetTelemetry(reg, tracer)
	spans := telemetry.NewSpanStore(telemetry.DefaultSpanCapacity, clock.System{})
	spans.SetOrigin(originID(dir))
	telemetry.RegisterSpanMetrics(reg, spans)
	s.ch.SetSpans(spans)
	s.pool.SetSpans(spans)
	s.miner.SetSpans(spans)
	s.node.SetSpans(spans)
	s.ix.SetSpans(spans)

	f := s.file
	reg.GaugeFunc("store_journal_bytes", "Size of the write-ahead journal on disk.", func() float64 {
		return float64(f.JournalBytes())
	})
	reg.GaugeFunc("store_blocklog_bytes", "Size of the block log on disk.", func() float64 {
		return float64(f.BlockLogBytes())
	})
	reg.CounterFunc("store_compactions_total", "Journal compactions performed.", func() float64 {
		return float64(f.Compactions())
	})
	g := s.group
	flushLag := reg.Histogram("store_flush_lag_seconds", "Time the oldest batch of each group flush spent pending.", telemetry.LatencyBuckets)
	groupSize := reg.Histogram("store_group_commit_batches", "Batches coalesced per group flush.", telemetry.ExpBuckets(1, 2, 8))
	flushes := reg.Counter("store_group_flushes_total", "Completed group-commit flushes.")
	reg.GaugeFunc("store_pending_batches", "Batches enqueued but not yet flushed to the store.", func() float64 {
		return float64(g.PendingBatches())
	})
	ch := s.ch
	g.SetOnFlush(func(batches int, lag time.Duration) {
		// The daemon's hook, then the benchmark's flush accounting.
		flushes.Inc()
		groupSize.Observe(float64(batches))
		flushLag.Observe(lag.Seconds())
		spans.NotifyDurable(ch.FlushedHeight())

		s.mu.Lock()
		s.flushes++
		s.batches += batches
		s.flushLags = append(s.flushLags, lag)
		s.mu.Unlock()
		kick(s.kick)
	})

	rs := s.st.(*store.Retry)
	reg.GaugeFunc("store_health", "Store health state (0 healthy, 1 recovering, 2 degraded-readonly).", func() float64 {
		h, _ := rs.Health()
		return float64(h)
	})
	reg.CounterFunc("store_retries_total", "Write attempts beyond each first try.", func() float64 {
		return float64(rs.Retries())
	})
	reg.CounterFunc("store_degrades_total", "Transitions into degraded-readonly.", func() float64 {
		return float64(rs.Degrades())
	})
	faults := reg.CounterVec("store_faults_total", "Storage faults observed, by operation and kind.", "op", "kind")
	rs.SetOnFault(func(op string, err error) {
		faults.With(op, "other").Inc()
		tracer.Record(telemetry.EvStoreFault, op, err.Error())
		s.noteFault(fmt.Sprintf("store fault in %s: %v", op, err))
	})
	rs.SetOnState(func(h store.Health, cause error) {
		if h == store.HealthDegraded {
			s.noteFault(fmt.Sprintf("store degraded: %v", cause))
		}
	})
	s.pool.SetGate(func() bool {
		h, _ := rs.Health()
		return h != store.HealthDegraded
	})
	s.reg = reg
}

func (s *stack) noteFault(msg string) {
	s.mu.Lock()
	s.faults = append(s.faults, msg)
	s.mu.Unlock()
}

// flushStats returns the flush hook's totals so far.
func (s *stack) flushStats() (flushes, batches int, lags []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes, s.batches, append([]time.Duration(nil), s.flushLags...)
}

// waitDurable blocks until the durability watermark reaches height.
func (s *stack) waitDurable(height int) {
	for s.ch.FlushedHeight() < height {
		select {
		case <-s.kick:
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// storeKeys counts every key in the store.
func (s *stack) storeKeys() (int, error) {
	n := 0
	err := s.st.Iterate(nil, func(_, _ []byte) error {
		n++
		return nil
	})
	return n, err
}

// counter reads one registry family (0 when absent).
func (s *stack) counter(name string) float64 {
	v, _ := s.reg.Value(name)
	return v
}

// close shuts the node down the way the daemon does on SIGTERM and
// removes its data directory.
func (s *stack) close() error {
	s.node.Stop()
	err := s.pool.Persist()
	if ferr := s.st.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// audit runs the three from-genesis correctness audits.
func (s *stack) audit() error {
	if err := s.ch.AuditFromGenesis(); err != nil {
		return fmt.Errorf("chain audit: %w", err)
	}
	if err := s.ledger.AuditAffine(); err != nil {
		return fmt.Errorf("ledger audit: %w", err)
	}
	if err := s.ix.AuditRebuild(); err != nil {
		return fmt.Errorf("index audit: %w", err)
	}
	return nil
}

// kick sends a non-blocking wake-up.
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// originID derives the span origin from the data directory, as the
// daemon derives it from its listen addresses.
func originID(dir string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(dir))
	if id := h.Sum64(); id != 0 {
		return id
	}
	return 1
}

// probes are chain subscribers registered between the daemon's
// subscribers. On the generator's node they turn the gaps between
// consecutive probes into subscriber spans; on a relay peer they record
// when each block's notification first arrived.
type probes struct {
	tr   *tracer
	kick chan struct{}

	// Generator goroutine only.
	pbStart time.Time
	first   bool
	last    time.Time

	mu        sync.Mutex
	firstSeen map[chainhash.Hash]time.Time // nil unless recording
}

// startBlock marks the start of a ProcessBlock call whose notifications
// the probes should attribute.
func (p *probes) startBlock(at time.Time) {
	p.pbStart = at
	p.first = true
}

func (p *probes) at(k int) func(chain.Notification) {
	return func(n chain.Notification) {
		now := time.Now()
		if k == 0 {
			p.mu.Lock()
			if p.firstSeen != nil && n.Connected {
				h := n.Block.BlockHash()
				if _, ok := p.firstSeen[h]; !ok {
					p.firstSeen[h] = now
				}
			}
			p.mu.Unlock()
		}
		if p.tr != nil && p.tr.on {
			if k == 0 {
				if p.first {
					p.tr.add("chain.connect", p.pbStart, now)
					p.first = false
				}
			} else {
				name := subscriberNames[k-1]
				if name == "ledger.notify" {
					if n.Connected {
						name = "ledger.notify_connect"
					} else {
						name = "ledger.notify_disconnect"
					}
				}
				p.tr.add(name, p.last, now)
			}
		}
		p.last = now
		if k == len(subscriberNames) {
			kick(p.kick)
		}
	}
}

// recordFirstSeen starts recording first-notification times.
func (p *probes) recordFirstSeen() {
	p.mu.Lock()
	p.firstSeen = make(map[chainhash.Hash]time.Time)
	p.mu.Unlock()
}

// seenAt returns when the block's first notification arrived.
func (p *probes) seenAt(h chainhash.Hash) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.firstSeen[h]
	return t, ok
}
