package main

import (
	"fmt"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/client"
	"typecoin/internal/index"
	"typecoin/internal/logic"
	"typecoin/internal/miner"
	"typecoin/internal/script"
	"typecoin/internal/typecoin"
	"typecoin/internal/wire"
)

// measure runs the workload's timed window: until opts.seconds pass,
// or for exactly opts.rounds operations when set (self-test). In a
// traced run every second operation is traced; the others give the
// untraced wall time trace.overhead compares against.
func (r *runner) measure() error {
	r.attempts, r.acceptFail = 0, 0
	r.timed = true
	start := time.Now()
	done := func(i int) bool {
		if r.opts.rounds > 0 {
			return i >= r.opts.rounds
		}
		return time.Since(start) >= r.opts.seconds
	}
	for i := 0; !done(i); i++ {
		// Alternate traced and untraced operations; the i/8 term moves
		// every-8th-round events (hostile branches) between the two.
		r.tr.on = r.opts.trace && (i+i/8)%2 == 1
		opStart := time.Now()
		root := r.tr.begin(rootSpan)
		var err error
		if r.w.claims > 0 {
			err = r.audit(i)
		} else {
			err = r.round(i)
		}
		r.tr.end(root)
		k := 0
		if r.tr.on {
			k = 1
		}
		r.opWalls[k] = append(r.opWalls[k], time.Since(opStart))
		r.tr.on = false
		if err != nil {
			return err
		}
	}
	r.elapsed = time.Since(start)
	return nil
}

// round submits one block's worth of commitments, mines the block and
// waits until each commitment is committed: applied by the ledger,
// durable, and visible in the index.
func (r *runner) round(i int) error {
	a, tr := r.a, r.tr
	var batch []*commitment
	group := i % r.w.groups
	for j := 0; j < r.w.perRound; j++ {
		seq := i*r.w.perRound + j
		var tx *typecoin.Tx
		c := &commitment{}
		if r.w.badEvery > 0 && (seq+int(r.opts.seed))%r.w.badEvery == 0 {
			if len(r.spares) == 0 {
				return fmt.Errorf("ill-typed commitments exhausted the %d preloaded spares", r.w.spares)
			}
			sp := r.spares[0]
			r.spares = r.spares[1:]
			tx = illTyped(sp.op, sp.typ, spareAmount, sp.owner.PubKey())
			c.bad = true
		} else {
			l := r.lins[group*r.w.perRound+j]
			if l.amount < 2*client.Fee {
				return fmt.Errorf("lineage ran out of satoshi after %d transfers", l.depth)
			}
			tx = transfer(l)
		}
		c.input = tx.Inputs[0].Source
		c.start = time.Now()
		carrier, err := r.submit(tx)
		r.ackLat = append(r.ackLat, time.Since(c.start))
		if err != nil {
			r.submitFail++
			r.problem("submit: %v", err)
			continue
		}
		c.carrier = carrier.TxHash()
		if !c.bad {
			r.lins[group*r.w.perRound+j].advance(c.carrier)
		}
		batch = append(batch, c)
		r.commits = append(r.commits, c)
	}
	if r.w.relay {
		carriers := make([]chainhash.Hash, len(batch))
		for k, c := range batch {
			carriers[k] = c.carrier
		}
		if err := r.waitPeerPool(carriers); err != nil {
			return err
		}
	}
	blk, err := r.mineBlock()
	if err != nil {
		return err
	}
	height := a.ch.BestHeight()
	if r.w.relay {
		if err := r.waitRelay(batch, blk, height); err != nil {
			return err
		}
	} else {
		id := tr.begin("store.durable_wait")
		a.waitDurable(height)
		tr.end(id)
		for _, c := range batch {
			ok := r.checkCommitted(a, c)
			if c.bad {
				if ok {
					r.problem("ill-typed commitment %s was applied", c.carrier)
				}
				continue
			}
			if ok {
				c.committed = true
				r.commitLat = append(r.commitLat, time.Since(c.start))
			}
		}
	}
	if r.w.reorgEvery > 0 && (i+1)%r.w.reorgEvery == 0 {
		return r.hostileBranch(i / r.w.reorgEvery)
	}
	return nil
}

// checkCommitted reports whether c is applied by s's ledger and its
// typed input's spend is indexed as c's carrier. The caller has already
// seen the carrier's block become durable.
func (r *runner) checkCommitted(s *stack, c *commitment) bool {
	id := r.tr.begin("ledger.applied")
	applied := s.ledger.Applied(c.carrier)
	r.tr.end(id)
	id = r.tr.begin("index.query")
	info, ok, err := s.ix.Outspend(c.input)
	r.tr.end(id)
	if err != nil {
		r.problem("outspend %v: %v", c.input, err)
		return false
	}
	return applied && ok && info.Spender == c.carrier
}

// waitRelay waits until the relay peer has committed every commitment
// of the round's block.
func (r *runner) waitRelay(batch []*commitment, blk *wire.MsgBlock, height int) error {
	b, tr := r.b, r.tr
	returned := time.Now()
	id := tr.begin("p2p.relay_wait")
	defer tr.end(id)
	left := len(batch)
	err := r.waitFor("relay peer commit", func() bool {
		if b.ch.FlushedHeight() < height {
			return false
		}
		for _, c := range batch {
			if c.committed || !r.checkCommitted(b, c) {
				continue
			}
			c.committed = true
			left--
			r.commitLat = append(r.commitLat, time.Since(c.start))
		}
		return left == 0
	})
	if err != nil {
		return err
	}
	if tr.on {
		if seen, ok := b.probes.seenAt(blk.BlockHash()); ok {
			r.blockLag += seen.Sub(returned)
		}
	}
	return nil
}

// hostileBranch builds a heavier coinbase-only branch forking d blocks
// below the tip and processes it; its last block triggers the reorg.
func (r *runner) hostileBranch(n int) error {
	a := r.a
	d := reorgDepths[(n+int(r.opts.seed))%len(reorgDepths)]
	tip := a.ch.BestHeight()
	fork, ok := a.ch.BlockAtHeight(tip - d)
	if !ok {
		return fmt.Errorf("no block at fork height %d", tip-d)
	}
	prev := fork
	for j := 0; j <= d; j++ {
		height := tip - d + 1 + j
		cb := wire.NewMsgTx(wire.TxVersion)
		sig := make([]byte, 0, 16)
		sig = append(sig, byte(height), byte(height>>8), byte(height>>16), byte(height>>24))
		sig = append(sig, []byte(fmt.Sprintf("hostile%d", n))...)
		cb.AddTxIn(&wire.TxIn{
			PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
			SignatureScript:  sig,
			Sequence:         wire.MaxTxInSequenceNum,
		})
		cb.AddTxOut(&wire.TxOut{
			Value:    a.ch.Params().CalcBlockSubsidy(height),
			PkScript: script.PayToPubKeyHash(foreignPrincipal(r.rng)),
		})
		blk := &wire.MsgBlock{
			Header: wire.BlockHeader{
				Version:    1,
				PrevBlock:  prev.BlockHash(),
				MerkleRoot: wire.ComputeMerkleRoot([]*wire.MsgTx{cb}),
				Timestamp:  prev.Header.Timestamp.Add(time.Second),
				Bits:       a.ch.Params().PowLimitBits,
			},
			Transactions: []*wire.MsgTx{cb},
		}
		if err := miner.SolveBlock(blk); err != nil {
			return err
		}
		r.attempts += uint64(blk.Header.Nonce) + 1
		span := "chain.process_block"
		last := j == d
		if last {
			span = "chain.reorg"
		}
		start := time.Now()
		if err := r.processBlock(blk, span); err != nil {
			return fmt.Errorf("hostile block: %w", err)
		}
		if last {
			r.reorgLat = append(r.reorgLat, time.Since(start))
			if a.ch.BestHash() != blk.BlockHash() {
				return fmt.Errorf("hostile branch of depth %d did not reorganize the chain", d)
			}
		}
		prev = blk
	}
	return nil
}

// audit runs one claim audit: find the lineage's carrier through the
// index, export the claim, round-trip it through its wire encoding and
// verify it trust-free. One audit in eight presents a tampered claim,
// which must be rejected.
func (r *runner) audit(i int) error {
	a, tr := r.a, r.tr
	l := r.lins[r.order[i%len(r.order)]]
	start := time.Now()
	found := false
	cur := index.Cursor{}
	for {
		id := tr.begin("index.query")
		rows, next, err := a.ix.PrincipalActivity(l.owner.Principal(), cur, index.DefaultPageLimit)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("principal activity: %w", err)
		}
		for _, row := range rows {
			if row.TxID == l.op.Hash {
				found = true
			}
		}
		if next == nil {
			break
		}
		cur = *next
	}
	if !found {
		r.problem("index has no activity row for carrier %s", l.op.Hash)
	}
	var claim *typecoin.Claim
	if tr.on {
		// The calls client.ExportClaim makes, each in its own span.
		id := tr.begin("ledger.resolve_output")
		prop, ok := a.ledger.ResolveOutput(l.op)
		tr.end(id)
		if !ok {
			return fmt.Errorf("%v is not an unconsumed typed output", l.op)
		}
		id = tr.begin("ledger.upstream_bundles")
		bundles, err := a.ledger.UpstreamBundles(l.op)
		tr.end(id)
		if err != nil {
			return err
		}
		claim = &typecoin.Claim{Out: l.op, Type: prop, Bundles: bundles}
	} else {
		var err error
		if claim, err = a.cl.ExportClaim(l.op); err != nil {
			return err
		}
	}
	if len(claim.Bundles) != l.depth {
		r.problem("claim for %v has %d bundles, lineage depth is %d", l.op, len(claim.Bundles), l.depth)
	}
	tampered := (i+int(r.opts.seed))%8 == 0
	if tampered {
		r.tampered++
		if (i/8)%2 == 0 || len(claim.Bundles) < 2 {
			claim.Type = logic.One
		} else {
			k := 1 + (i/16)%(len(claim.Bundles)-1)
			claim.Bundles = append(claim.Bundles[:k:k], claim.Bundles[k+1:]...)
		}
	}
	id := tr.begin("typecoin.claim_codec")
	dec, err := typecoin.DecodeClaimBytes(claim.Bytes())
	tr.end(id)
	if err != nil {
		return fmt.Errorf("claim round trip: %w", err)
	}
	id = tr.begin("typecoin.verify_claim")
	verr := typecoin.VerifyClaim(a.ch, dec, a.ledger.MinConf())
	tr.end(id)
	r.claimLat = append(r.claimLat, time.Since(start))
	r.audits++
	r.bundles += len(dec.Bundles)
	switch {
	case tampered && verr == nil:
		r.problem("tampered claim for %v verified", l.op)
	case tampered:
		r.rejectOK++
	case verr != nil:
		r.failed++
		r.problem("valid claim for %v rejected: %v", l.op, verr)
	}
	return nil
}

// finish brings the node to rest outside the timed window: it mines any
// commitments a hostile branch returned to the mempool, then checks
// that every commitment is committed and no ill-typed one applied.
func (r *runner) finish() error {
	a := r.a
	if r.w.claims > 0 {
		return nil
	}
	if !r.w.relay && a.pool.Size() > 0 {
		if _, err := r.mineBlock(); err != nil {
			return err
		}
	}
	s := a
	if r.w.relay {
		s = r.b
	}
	s.waitDurable(s.ch.BestHeight())
	bad := 0
	for _, c := range r.commits {
		ok := r.checkCommitted(s, c)
		if _, _, onChain := s.ch.BlockOf(c.carrier); !onChain {
			ok = false
		}
		if c.bad {
			bad++
			if ok || s.ledger.Applied(c.carrier) {
				r.problem("ill-typed commitment %s was applied", c.carrier)
			}
			continue
		}
		if !ok {
			r.failed++
			r.problem("commitment %s not committed by run end", c.carrier)
			continue
		}
		r.digest = append(r.digest, c.carrier)
	}
	if r.w.badEvery > 0 {
		rejected := 0
		for _, c := range r.commits {
			if _, _, onChain := s.ch.BlockOf(c.carrier); c.bad && onChain && !s.ledger.Applied(c.carrier) {
				rejected++
			}
		}
		if rejected != bad {
			r.problem("%d ill-typed commitments submitted, %d anchored and rejected", bad, rejected)
		}
	}
	if r.w.relay {
		if r.b.ch.BestHash() != a.ch.BestHash() {
			r.problem("relay peer tip %s differs from %s", r.b.ch.BestHash(), a.ch.BestHash())
		}
		if r.b.ledger.AppliedCount() != a.ledger.AppliedCount() {
			r.problem("relay peer applied %d carriers, origin %d", r.b.ledger.AppliedCount(), a.ledger.AppliedCount())
		}
		for _, c := range r.commits {
			if a.ledger.Applied(c.carrier) != r.b.ledger.Applied(c.carrier) {
				r.problem("carrier %s applied on one node only", c.carrier)
			}
		}
	}
	return nil
}
