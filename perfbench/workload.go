package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"typecoin/internal/batch"
	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/client"
	"typecoin/internal/clock"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/miner"
	"typecoin/internal/script"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// workload describes one traffic mix. The reasons each exists are in
// BENCHMARK.json; the comments here say what each knob does.
type workload struct {
	name       string
	perRound   int // commitments per block (B)
	groups     int // lineage groups; P = perRound*groups, a lineage is reused every groups rounds
	grants     int // extra typed grants preloaded (ledger state)
	fanout     int // plain outputs preloaded to foreign principals (store size)
	reorgEvery int // rounds between hostile branches; 0 = none
	badEvery   int // one commitment in badEvery carries an ill-typed proof; 0 = none
	relay      bool
	claims     int // lineages audited; > 0 selects the claim-audit loop
	spares     int // typed outputs preloaded for ill-typed commitments to spoil
	setups     int // set-ups per run; small set-ups repeat more for a steady median
}

var workloads = []workload{
	{name: "commit", perRound: 32, groups: 2, grants: 512, fanout: 45_000, setups: 3},
	{name: "claim-audit", claims: 64, fanout: 45_000, setups: 3},
	// groups exceeds the deepest hostile branch, so no reorg window
	// holds two carriers of one lineage: disconnected carriers always
	// return to the mempool whole.
	{name: "reorg-hostile", perRound: 32, groups: 4, reorgEvery: 8, badEvery: 16, spares: 1024, setups: 9},
	{name: "relay", perRound: 8, groups: 2, relay: true, setups: 9},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Hostile branch depths cycle through these, in a seeded order.
var reorgDepths = []int{1, 2, 3}

const (
	fanoutPerTx    = 1000
	fanoutPerBlock = 8
	fanoutValue    = 1_000_000
	grantsPerBlock = 64
	smokeDivisor   = 50 // preload scale-down for the self-test
	relayTimeout   = 30 * time.Second
)

// commitment is one submitted typed transaction.
type commitment struct {
	carrier   chainhash.Hash
	input     wire.OutPoint
	bad       bool
	start     time.Time
	committed bool
}

// spare is a preloaded typed output an ill-typed commitment spoils.
type spare struct {
	op    wire.OutPoint
	typ   logic.Prop
	owner *bkey.PrivateKey
}

// runner holds one benchmark process's state.
type runner struct {
	opts options
	w    workload
	rng  *rand.Rand
	tr   *tracer
	clk  *clock.Simulated
	a, b *stack // b is the relay peer

	lins   []*lineage
	spares []spare
	order  []int // claim-audit lineage visiting order

	setupTimes  []time.Duration
	preloadKeys int

	// Timed-window results.
	commits    []*commitment
	ackLat     []time.Duration
	commitLat  []time.Duration
	claimLat   []time.Duration
	reorgLat   []time.Duration
	audits     int
	tampered   int
	bundles    int
	attempts   uint64 // header nonce attempts (Nonce+1) of blocks mined
	submitFail int
	acceptFail int
	rejectOK   int // tampered claims rejected
	failed     int
	problems   []string
	blockLag   time.Duration
	opWalls    [2][]time.Duration // untraced and traced operations' wall times
	elapsed    time.Duration
	timed      bool             // the timed window has started
	digest     []chainhash.Hash // committed carriers in submission order
}

func (r *runner) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) scale(n int) int {
	if r.opts.smoke {
		return (n + smokeDivisor - 1) / smokeDivisor
	}
	return n
}

// setup opens the stacks and preloads them, w.setups times so set-up
// time is reported as a median; all but the last set-up are closed
// again.
func (r *runner) setup() error {
	for i := 0; i < r.w.setups; i++ {
		start := time.Now()
		if err := r.setupOnce(i); err != nil {
			return err
		}
		r.setupTimes = append(r.setupTimes, time.Since(start))
		if i == r.w.setups-1 {
			break
		}
		if err := r.closeStacks(); err != nil {
			return err
		}
		runtime.GC()
	}
	keys, err := r.a.storeKeys()
	if err != nil {
		return err
	}
	r.preloadKeys = keys
	runtime.GC()
	return nil
}

func (r *runner) entropy(node string) *testutil.Entropy {
	return testutil.NewEntropy(fmt.Sprintf("perfbench/%s/%d/%s", r.w.name, r.opts.seed, node))
}

func (r *runner) setupOnce(attempt int) error {
	r.rng = rand.New(rand.NewSource(r.opts.seed))
	params := chain.RegTestParams()
	r.clk = clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	r.tr = newTracer()
	r.lins, r.spares = nil, nil
	base := filepath.Join(r.opts.out, "data", fmt.Sprintf("%s-%d-%d", r.w.name, r.opts.seed, attempt))
	var err error
	if r.a, err = openStack(filepath.Join(base, "a"), r.clk, r.opts.interval, r.entropy("a"), r.tr); err != nil {
		return err
	}
	if r.w.relay {
		if r.b, err = openStack(filepath.Join(base, "b"), r.clk, r.opts.interval, r.entropy("b"), nil); err != nil {
			return err
		}
		r.b.probes.recordFirstSeen()
		addr, err := r.a.node.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		if err := r.b.node.Dial(addr); err != nil {
			return err
		}
		if err := r.waitFor("peer handshake", func() bool {
			return r.a.node.PeerCount() == 1 && r.b.node.PeerCount() == 1
		}); err != nil {
			return err
		}
	}

	// Funding: mature coinbases for the grants and the fan-out.
	need := r.scale(r.w.fanout)/fanoutPerTx + 8
	if err := r.mineEmpty(params.CoinbaseMaturity + need); err != nil {
		return err
	}
	if r.w.claims > 0 {
		if err := r.buildClaimLineages(); err != nil {
			return err
		}
	} else if err := r.grantLineages(); err != nil {
		return err
	}
	if err := r.preloadFanout(r.scale(r.w.fanout)); err != nil {
		return err
	}
	if r.w.relay {
		return r.waitFor("relay peer sync", func() bool {
			return r.b.ch.BestHash() == r.a.ch.BestHash() && r.b.ledger.AppliedCount() == r.a.ledger.AppliedCount()
		})
	}
	return nil
}

func (r *runner) closeStacks() error {
	var errs []error
	if r.b != nil {
		errs = append(errs, r.b.close())
		r.b = nil
	}
	if r.a != nil {
		errs = append(errs, r.a.close())
		r.a = nil
	}
	return errors.Join(errs...)
}

// waitFor re-checks cond whenever the relay peer reports progress, and
// at least every millisecond, until it holds or relayTimeout passes.
func (r *runner) waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(relayTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		select {
		case <-r.b.kick:
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// mineBlock builds, solves and processes one block on the generator's
// node, advancing the shared clock one target spacing first.
func (r *runner) mineBlock() (*wire.MsgBlock, error) {
	a, tr := r.a, r.tr
	r.clk.Advance(a.ch.Params().TargetSpacing)
	id := tr.begin("miner.build_block")
	blk, err := a.miner.BuildBlock(a.payout)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("miner.solve")
	err = miner.SolveBlock(blk)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	r.attempts += uint64(blk.Header.Nonce) + 1
	if err := r.processBlock(blk, "chain.process_block"); err != nil {
		return nil, err
	}
	if a.ch.BestHash() != blk.BlockHash() {
		return nil, fmt.Errorf("mined block %s did not become the tip", blk.BlockHash())
	}
	if r.b != nil && !r.timed {
		// Set-up blocks: let the peer connect each block before the
		// clock moves on, as the timed rounds do.
		if err := r.waitFor("relay peer block", func() bool { return r.b.ch.BestHash() == blk.BlockHash() }); err != nil {
			return nil, err
		}
	}
	return blk, nil
}

// waitPeerPool waits until the relay peer's mempool holds every
// carrier, so no transaction request is in flight when the block is
// mined and the shared clock jumps a target spacing.
func (r *runner) waitPeerPool(carriers []chainhash.Hash) error {
	if r.b == nil {
		return nil
	}
	id := r.tr.begin("p2p.tx_relay_wait")
	defer r.tr.end(id)
	return r.waitFor("relay peer mempool", func() bool {
		for _, c := range carriers {
			if !r.b.pool.Have(c) {
				return false
			}
		}
		return true
	})
}

// processBlock hands blk to the generator's node (through the p2p
// node's broadcast on the relay workload) inside a span of the given
// name.
func (r *runner) processBlock(blk *wire.MsgBlock, span string) error {
	id := r.tr.begin(span)
	r.a.probes.startBlock(time.Now())
	var err error
	if r.w.relay {
		err = r.a.node.BroadcastBlock(blk)
	} else {
		_, err = r.a.ch.ProcessBlock(blk)
	}
	r.tr.end(id)
	return err
}

func (r *runner) mineEmpty(n int) error {
	for i := 0; i < n; i++ {
		if _, err := r.mineBlock(); err != nil {
			return err
		}
	}
	return nil
}

// submit sends a typed transaction through client.Submit. On a traced
// round it makes the calls Submit makes, in Submit's order, each in
// its own span, so the carrier is the same either way.
func (r *runner) submit(tx *typecoin.Tx) (*wire.MsgTx, error) {
	s, tr := r.a, r.tr
	if !tr.on {
		carrier, err := s.cl.Submit(tx)
		if err == nil && r.w.relay {
			err = r.broadcast(tx, carrier)
		}
		return carrier, err
	}
	root := tr.begin("client.submit")
	defer tr.end(root)
	id := tr.begin("typecoin.carrier_outputs")
	carrierOuts, err := typecoin.CarrierOutputs(tx)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	outputs := make([]wallet.Output, len(carrierOuts))
	for i, o := range carrierOuts {
		outputs[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	extra := make([]wire.OutPoint, len(tx.Inputs))
	for i, in := range tx.Inputs {
		extra[i] = in.Source
	}
	id = tr.begin("wallet.build")
	carrier, err := s.wallet.Build(outputs, wallet.BuildOptions{Fee: client.Fee, ExtraInputs: extra})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("typecoin.verify_embedding")
	err = typecoin.VerifyEmbedding(tx, carrier)
	tr.end(id)
	if err != nil {
		s.wallet.Unlock(carrier)
		return nil, err
	}
	id = tr.begin("mempool.accept")
	_, err = s.pool.Accept(carrier)
	tr.end(id)
	if err != nil {
		r.acceptFail++
		s.wallet.Unlock(carrier)
		return nil, err
	}
	id = tr.begin("ledger.announce")
	s.ledger.Announce(tx)
	tr.end(id)
	if r.w.relay {
		err = r.broadcast(tx, carrier)
	}
	return carrier, err
}

// broadcast relays a submitted commitment through the node's public
// broadcast calls: the carrier, then the out-of-band typed transaction.
func (r *runner) broadcast(tx *typecoin.Tx, carrier *wire.MsgTx) error {
	id := r.tr.begin("p2p.broadcast")
	defer r.tr.end(id)
	if err := r.a.node.BroadcastTx(carrier); err != nil {
		return err
	}
	r.a.node.BroadcastTypecoinTx(tx)
	return nil
}

// grantLineages preloads the typed grants: one per lineage, the spares
// ill-typed commitments spoil, and the extra grants that give the
// ledger and store their steady-state size.
func (r *runner) grantLineages() error {
	a := r.a
	var txs []*typecoin.Tx
	nLins := r.w.perRound * r.w.groups
	for i := 0; i < nLins; i++ {
		key, err := newKey(a)
		if err != nil {
			return err
		}
		r.lins = append(r.lins, &lineage{kind: "tok", owner: key, amount: lineageAmount, depth: 1})
		txs = append(txs, tokenGrant(key.PubKey(), lineageAmount, false))
	}
	payoutKey, err := a.wallet.Key(a.payout)
	if err != nil {
		return err
	}
	const sparesPerGrant = 64
	spareGrants := (r.w.spares + sparesPerGrant - 1) / sparesPerGrant
	for i := 0; i < spareGrants; i++ {
		key, err := newKey(a)
		if err != nil {
			return err
		}
		txs = append(txs, multiGrant(key.PubKey(), sparesPerGrant, spareAmount))
		for j := 0; j < sparesPerGrant; j++ {
			r.spares = append(r.spares, spare{owner: key})
		}
	}
	for i := 0; i < r.scale(r.w.grants); i++ {
		txs = append(txs, tokenGrant(payoutKey.PubKey(), grantAmount+int64(i), false))
	}
	carriers, err := r.submitAll(txs)
	if err != nil {
		return err
	}
	for i, l := range r.lins {
		l.op = wire.OutPoint{Hash: carriers[i], Index: 0}
		l.typ = tokenType(carriers[i])
	}
	for i := range r.spares {
		c := carriers[nLins+i/sparesPerGrant]
		r.spares[i].op = wire.OutPoint{Hash: c, Index: uint32(i % sparesPerGrant)}
		r.spares[i].typ = tokenType(c)
	}
	return nil
}

// submitAll submits txs grantsPerBlock to a block and checks that every
// one applied.
func (r *runner) submitAll(txs []*typecoin.Tx) ([]chainhash.Hash, error) {
	var carriers []chainhash.Hash
	for len(txs) > 0 {
		n := min(grantsPerBlock, len(txs))
		for _, tx := range txs[:n] {
			c, err := r.submit(tx)
			if err != nil {
				return nil, fmt.Errorf("preload grant: %w", err)
			}
			carriers = append(carriers, c.TxHash())
		}
		if err := r.waitPeerPool(carriers[len(carriers)-n:]); err != nil {
			return nil, err
		}
		txs = txs[n:]
		if _, err := r.mineBlock(); err != nil {
			return nil, err
		}
	}
	for _, c := range carriers {
		if !r.a.ledger.Applied(c) {
			return nil, fmt.Errorf("preload grant %s not applied", c)
		}
	}
	return carriers, nil
}

// preloadFanout pays n plain outputs to foreign principals, the way the
// daemon's /send does, to give the store its working size.
func (r *runner) preloadFanout(n int) error {
	a := r.a
	for n > 0 {
		for t := 0; t < fanoutPerBlock && n > 0; t++ {
			k := min(fanoutPerTx, n)
			outs := make([]wallet.Output, k)
			for j := range outs {
				outs[j] = wallet.Output{Value: fanoutValue, PkScript: script.PayToPubKeyHash(foreignPrincipal(r.rng))}
			}
			tx, err := a.wallet.Build(outs, wallet.BuildOptions{})
			if err != nil {
				return fmt.Errorf("fan-out: %w", err)
			}
			if err := a.node.BroadcastTx(tx); err != nil {
				a.wallet.Unlock(tx)
				return fmt.Errorf("fan-out: %w", err)
			}
			n -= k
		}
		if _, err := r.mineBlock(); err != nil {
			return err
		}
	}
	return nil
}

// buildClaimLineages grows the claim-audit lineages to seeded upstream
// depths spread over 1..32 bundles. One in four starts from a newcoin
// basis and the E5 merge proof; one in eight passes through a
// batch-mode withdrawal.
func (r *runner) buildClaimLineages() error {
	a := r.a
	n := r.w.claims
	const maxDepth = 32
	depths := make([]int, n)
	for i := range depths {
		depths[i] = 1 + (i*maxDepth+r.rng.Intn(maxDepth))/n
	}
	r.rng.Shuffle(n, func(i, j int) { depths[i], depths[j] = depths[j], depths[i] })
	type build struct {
		l      *lineage
		target int
		step   int
		server *batch.Server
		basis  chainhash.Hash
		a, b   uint64
	}
	builds := make([]*build, n)
	for i := range builds {
		key, err := newKey(a)
		if err != nil {
			return err
		}
		bl := &build{l: &lineage{kind: "tok", owner: key, amount: lineageAmount, marker: true}, target: depths[i]}
		switch {
		case i%8 == 7:
			bl.l.kind = "batch"
			skey, err := bkey.NewPrivateKey(r.entropy(fmt.Sprintf("batch-server-%d", i)))
			if err != nil {
				return err
			}
			bl.server = batch.NewServer(a.cl, skey)
		case i%4 == 1:
			bl.l.kind = "newcoin"
			bl.a, bl.b = uint64(2+i), uint64(3+i)
		}
		// Every step but a newcoin basis and a batch withdrawal carries a
		// marker, so the audited carrier is always past them.
		switch {
		case bl.l.kind == "newcoin" && bl.target < 2:
			bl.target = 2
		case bl.l.kind == "batch" && bl.target < 3:
			bl.target = 3
		}
		builds[i] = bl
		r.lins = append(r.lins, bl.l)
	}
	for {
		type sent struct {
			bl      *build
			carrier chainhash.Hash
		}
		var round []sent
		for _, bl := range builds {
			l := bl.l
			if l.depth >= bl.target {
				continue
			}
			var tx *typecoin.Tx
			switch {
			case bl.step == 0 && l.kind == "tok":
				tx = tokenGrant(l.owner.PubKey(), lineageAmount, true)
			case bl.step == 0 && l.kind == "newcoin":
				tx = newcoinBasis(l.owner.PubKey(), bl.a, bl.b)
			case bl.step == 0 && l.kind == "batch":
				tx = tokenGrant(bl.server.Key(), lineageAmount, false)
			case bl.step == 1 && l.kind == "newcoin":
				tx = newcoinMerge(bl.basis, l.owner.PubKey(), bl.a, bl.b)
			case bl.step == 1 && l.kind == "batch":
				carrier, err := r.withdraw(bl.server, l)
				if err != nil {
					return err
				}
				round = append(round, sent{bl, carrier})
				continue
			default:
				tx = transfer(l)
			}
			carrier, err := r.submit(tx)
			if err != nil {
				return fmt.Errorf("claim lineage %s step %d: %w", l.kind, bl.step, err)
			}
			round = append(round, sent{bl, carrier.TxHash()})
		}
		if len(round) == 0 {
			break
		}
		if _, err := r.mineBlock(); err != nil {
			return err
		}
		for _, s := range round {
			bl, l := s.bl, s.bl.l
			if !a.ledger.Applied(s.carrier) {
				return fmt.Errorf("claim lineage %s step %d: carrier %s not applied", l.kind, bl.step, s.carrier)
			}
			switch {
			case bl.step == 0:
				l.op = wire.OutPoint{Hash: s.carrier, Index: 0}
				l.typ = tokenType(s.carrier)
				l.depth = 1
				if l.kind == "newcoin" {
					bl.basis = s.carrier
				}
				if l.kind == "batch" {
					if err := bl.server.Deposit(l.op, l.owner.Principal()); err != nil {
						return err
					}
				}
			case bl.step == 1 && l.kind == "newcoin":
				l.op = wire.OutPoint{Hash: s.carrier, Index: 0}
				basis := bl.basis
				l.typ = coinAt(func(label string) lf.Ref { return lf.TxRef(basis, label) }, bl.a+bl.b)
				l.amount = mergedAmount
				l.depth = 2
			case bl.step == 1 && l.kind == "batch":
				l.op = wire.OutPoint{Hash: s.carrier, Index: 0}
				l.depth = 2
			default:
				l.advance(s.carrier)
			}
			bl.step++
		}
	}
	r.order = r.rng.Perm(n)
	return nil
}

// withdraw moves a batch lineage's deposit through two off-chain
// transfers and withdraws it back on chain to the lineage's owner.
func (r *runner) withdraw(srv *batch.Server, l *lineage) (chainhash.Hash, error) {
	owner := l.owner.Principal()
	cur := l.op
	for i := 0; i < 2; i++ {
		tx := offChainTransfer(cur, l.typ, l.amount, l.owner.PubKey())
		if err := srv.SubmitOffChain(tx, owner); err != nil {
			return chainhash.Hash{}, fmt.Errorf("off-chain transfer: %w", err)
		}
		cur = wire.OutPoint{Hash: tx.Hash(), Index: 0}
	}
	carrier, _, err := srv.Withdraw(cur, l.owner.PubKey())
	if err != nil {
		return chainhash.Hash{}, fmt.Errorf("withdraw: %w", err)
	}
	return carrier.TxHash(), nil
}
