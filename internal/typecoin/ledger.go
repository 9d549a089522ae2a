package typecoin

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/logic"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// Ledger follows a chain and maintains the Typecoin state for it: as
// carrier transactions confirm, their (out-of-band announced) Typecoin
// transactions are checked and applied. This is what a Typecoin client
// runs next to its Bitcoin node.
//
// Typecoin transactions travel out of band — the network sees only their
// hash — so the ledger can only interpret carriers whose Typecoin
// transaction it has been shown via Announce.
type Ledger struct {
	chain   *chain.Chain
	minConf int

	// st is non-nil for ledgers created with OpenLedger: announcements
	// and applied markers are written through to the chain's store (see
	// persist.go). The typed state itself is replay-derived on startup.
	st store.Store

	mu    sync.Mutex
	state *State
	// known maps a commitment hash to the announced object: a
	// *FallbackList (ordinary transactions are singleton lists) or a
	// *Batch.
	known map[chainhash.Hash]interface{}
	// waiting maps carrier txid -> commitment hash for confirmed-but-not-
	// yet-deep-enough carriers.
	waiting map[chainhash.Hash]chainhash.Hash
	// seen maps every commitment hash observed on the main chain to its
	// carrier txid, so announcements arriving after confirmation still
	// apply (announce-after-mine).
	seen    map[chainhash.Hash]chainhash.Hash
	applied map[chainhash.Hash]bool // carrier txids already applied

	// Write-behind state of persistent ledgers (persist.go): unsaved
	// lists announcements whose row is not yet in the store, and dirty
	// holds the carriers whose applied marker must be rewritten from
	// applied — false for those known to disagree, true for those whose
	// persisted marker is unknown. Both are written as one batch at the
	// end of every sweep and cleared only once that write succeeds;
	// persistErr keeps the last failure until then.
	unsaved    []chainhash.Hash
	dirty      map[chainhash.Hash]bool
	persistErr error
}

// NewLedger creates a ledger over c that applies Typecoin transactions
// once their carriers have minConf confirmations (the paper uses about
// five; tests use one).
func NewLedger(c *chain.Chain, minConf int) *Ledger {
	if minConf < 1 {
		minConf = 1
	}
	l := &Ledger{
		chain:   c,
		minConf: minConf,
		state:   NewState(),
		known:   make(map[chainhash.Hash]interface{}),
		waiting: make(map[chainhash.Hash]chainhash.Hash),
		seen:    make(map[chainhash.Hash]chainhash.Hash),
		applied: make(map[chainhash.Hash]bool),
	}
	c.Subscribe(l.onChainChange)
	return l
}

// MinConf returns the ledger's confirmation depth.
func (l *Ledger) MinConf() int { return l.minConf }

// Announce registers a Typecoin transaction so the ledger can interpret
// its carrier when it confirms. Announcing is idempotent.
func (l *Ledger) Announce(tx *Tx) {
	l.AnnounceList(&FallbackList{Txs: []*Tx{tx}})
}

// AnnounceList registers a fallback list (Section 5): the carrier commits
// to the list hash and the first valid member is applied.
func (l *Ledger) AnnounceList(list *FallbackList) {
	l.announce(list.Hash(), list)
}

// AnnounceBatch registers a batch-mode withdrawal (Section 3.2).
func (l *Ledger) AnnounceBatch(b *Batch) {
	l.announce(b.Hash(), b)
}

func (l *Ledger) announce(h chainhash.Hash, obj interface{}) {
	l.mu.Lock()
	if _, ok := l.known[h]; !ok {
		l.known[h] = obj
		// Announcements travel out of band and cannot be rederived from
		// the chain, so they are persisted the moment they arrive: by the
		// sweep below, in the same batch as the markers they change.
		if l.st != nil {
			l.unsaved = append(l.unsaved, h)
		}
	}
	// The carrier may already be on chain (announce-after-mine): the
	// seen index remembers every metadata-bearing carrier.
	rebuild := false
	if carrierID, ok := l.seen[h]; ok && !l.applied[carrierID] {
		l.waiting[carrierID] = h
		// If carriers later in blockchain order have already been
		// applied, merely sweeping would apply this one out of order —
		// and a Typecoin double-spend would then be resolved by arrival
		// order instead of blockchain order, diverging between nodes.
		// Replay from scratch so blockchain order decides.
		rebuild = l.appliedAfterLocked(carrierID)
	}
	l.mu.Unlock()
	if rebuild {
		l.rebuild()
		return
	}
	l.sweep()
}

// appliedAfterLocked reports whether any already-applied carrier sits
// after carrierID in blockchain (height, position) order.
func (l *Ledger) appliedAfterLocked(carrierID chainhash.Hash) bool {
	height, pos, ok := l.carrierPosLocked(carrierID)
	if !ok {
		return false
	}
	for applied := range l.applied {
		ah, apos, ok := l.carrierPosLocked(applied)
		if !ok {
			continue
		}
		if ah > height || (ah == height && apos > pos) {
			return true
		}
	}
	return false
}

// carrierPosLocked locates a carrier on the main chain.
func (l *Ledger) carrierPosLocked(carrierID chainhash.Hash) (height, pos int, ok bool) {
	blk, height, ok := l.chain.BlockOf(carrierID)
	if !ok {
		return 0, 0, false
	}
	for i, btx := range blk.Transactions {
		if btx.TxHash() == carrierID {
			return height, i, true
		}
	}
	return 0, 0, false
}

// onChainChange reacts to block connects/disconnects.
func (l *Ledger) onChainChange(n chain.Notification) {
	if !n.Connected {
		// A reorganization may have invalidated applied transactions;
		// rebuild from scratch. Reorgs are rare and the replay is
		// deterministic, so simplicity wins over incrementality here.
		l.mu.Lock()
		defer l.mu.Unlock()
		l.markersDroppedLocked(n.Block)
		l.replayLocked()
		l.flushLocked()
		return
	}
	l.mu.Lock()
	for _, btx := range n.Block.Transactions {
		if h, ok := ExtractMetaHash(btx); ok {
			l.seen[h] = btx.TxHash()
			if _, known := l.known[h]; known {
				l.waiting[btx.TxHash()] = h
			}
		}
	}
	l.mu.Unlock()
	l.sweep()
}

// sweep applies every waiting transaction whose carrier is deep enough,
// in blockchain order (the order the global basis accumulates in), then
// persists what changed.
func (l *Ledger) sweep() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyReadyLocked()
	l.flushLocked()
}

// applyReadyLocked is sweep without the write; caller holds l.mu.
func (l *Ledger) applyReadyLocked() {
	type entry struct {
		carrierID chainhash.Hash
		tch       chainhash.Hash
		height    int
		pos       int
	}
	var ready []entry
	for carrierID, tch := range l.waiting {
		if l.applied[carrierID] {
			delete(l.waiting, carrierID)
			continue
		}
		if l.chain.Confirmations(carrierID) < l.minConf {
			continue
		}
		blk, height, ok := l.chain.BlockOf(carrierID)
		if !ok {
			continue
		}
		pos := 0
		for i, btx := range blk.Transactions {
			if btx.TxHash() == carrierID {
				pos = i
				break
			}
		}
		ready = append(ready, entry{carrierID, tch, height, pos})
	}
	// Blockchain order makes the common case a single pass; the retry
	// loop below handles same-block basis dependencies that the miner
	// (which cannot see Typecoin-level references) ordered backwards.
	sort.Slice(ready, func(i, j int) bool {
		if ready[i].height != ready[j].height {
			return ready[i].height < ready[j].height
		}
		return ready[i].pos < ready[j].pos
	})
	done := make(map[chainhash.Hash]bool, len(ready))
	for {
		progressed := false
		for _, e := range ready {
			if done[e.carrierID] {
				continue
			}
			obj := l.known[e.tch]
			if obj == nil || !l.readyLocked(obj) {
				continue
			}
			if err := l.applyLocked(obj, e.carrierID); err == nil {
				progressed = true
				done[e.carrierID] = true
				delete(l.waiting, e.carrierID)
			}
		}
		if !progressed {
			break
		}
	}
	// Entries that still fail stay in waiting: the failure may be a
	// basis dependency whose transaction has not been announced yet, so
	// they are retried on every sweep. Permanently invalid transactions
	// (a false condition at their block — the "spoiled inputs" hazard of
	// Section 5) are re-rejected each time, so every sweep costs
	// O(waiting) and ill-typed carriers raise the cost of every later
	// block; the dependency-keyed wait queue on the ROADMAP ("Incremental
	// typed ledger") removes this.
}

// readyLocked reports whether the announced object's inputs all resolve
// in the current state.
func (l *Ledger) readyLocked(obj interface{}) bool {
	switch obj := obj.(type) {
	case *FallbackList:
		if len(obj.Txs) == 0 {
			return false
		}
		// Inputs are identical across members (Validate).
		for _, in := range obj.Txs[0].Inputs {
			if _, ok := l.state.ResolveOutput(in.Source); !ok {
				return false
			}
		}
		return true
	case *Batch:
		for _, src := range obj.Sources {
			if _, ok := l.state.ResolveOutput(src.Source); !ok {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (l *Ledger) applyLocked(obj interface{}, carrierID chainhash.Hash) error {
	carrier, ok := l.chain.TxByID(carrierID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrCarrierUnknown, carrierID)
	}
	blk, height, ok := l.chain.BlockOf(carrierID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrCarrierUnknown, carrierID)
	}
	switch obj := obj.(type) {
	case *FallbackList:
		if err := VerifyListEmbedding(obj, carrier); err != nil {
			return err
		}
		// "If the primary transaction turns out to be invalid, the first
		// valid fallback transaction is used instead."
		selected, _, err := obj.Select(l.state, OracleAt(l.chain, blk, height))
		if err != nil {
			return err
		}
		if err := l.state.Apply(selected, carrierID); err != nil {
			return err
		}
	case *Batch:
		if err := VerifyBatchEmbedding(obj, carrier); err != nil {
			return err
		}
		if err := l.state.CheckBatch(obj); err != nil {
			return err
		}
		if err := l.state.ApplyBatch(obj, carrierID); err != nil {
			return err
		}
	default:
		return fmt.Errorf("typecoin: unknown announcement %T", obj)
	}
	l.applied[carrierID] = true
	l.flipLocked(carrierID)
	return nil
}

// rebuild replays the whole main chain against the known transaction
// set and persists the markers that changed.
func (l *Ledger) rebuild() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.replayLocked()
	l.flushLocked()
}

// replayLocked resets the typed state and reapplies the main chain in
// blockchain order. Markers of carriers that no longer apply end up in
// dirty for deletion; those applied again cancel out.
func (l *Ledger) replayLocked() {
	for id := range l.applied {
		l.flipLocked(id)
	}
	l.state = NewState()
	l.waiting = make(map[chainhash.Hash]chainhash.Hash)
	l.seen = make(map[chainhash.Hash]chainhash.Hash)
	l.applied = make(map[chainhash.Hash]bool)
	for h := 0; ; h++ {
		blk, ok := l.chain.BlockAtHeight(h)
		if !ok {
			break
		}
		for _, btx := range blk.Transactions {
			if mh, ok := ExtractMetaHash(btx); ok {
				l.seen[mh] = btx.TxHash()
				if _, known := l.known[mh]; known {
					l.waiting[btx.TxHash()] = mh
				}
			}
		}
	}
	l.applyReadyLocked()
}

// State queries (all consistent snapshots under the ledger lock).

// ResolveOutput returns the type of an unconsumed typed output.
func (l *Ledger) ResolveOutput(op wire.OutPoint) (logic.Prop, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.ResolveOutput(op)
}

// GlobalBasis returns the accumulated global basis.
func (l *Ledger) GlobalBasis() *logic.Basis {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.GlobalBasis()
}

// Applied reports whether the carrier's Typecoin transaction has been
// applied.
func (l *Ledger) Applied(carrierID chainhash.Hash) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied[carrierID]
}

// TxByHash returns an applied transaction by its Typecoin hash, falling
// back to announced singleton lists.
func (l *Ledger) TxByHash(h chainhash.Hash) (*Tx, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tx, ok := l.state.TxByHash(h); ok {
		return tx, true
	}
	if list, ok := l.known[h].(*FallbackList); ok && len(list.Txs) == 1 {
		return list.Txs[0], true
	}
	return nil, false
}

// UpstreamBundles assembles the bundle set for a typed output: the
// producing transaction plus everything upstream of it, in no particular
// order — exactly what a claimant hands to Verify.
func (l *Ledger) UpstreamBundles(op wire.OutPoint) ([]*Bundle, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start, ok := l.state.OriginOf(op)
	if !ok {
		return nil, errors.New("typecoin: outpoint has no known origin")
	}
	seen := make(map[chainhash.Hash]bool)
	var out []*Bundle
	var walk func(tch chainhash.Hash) error
	walk = func(tch chainhash.Hash) error {
		if seen[tch] {
			return nil
		}
		seen[tch] = true
		carrier, ok := l.state.CarrierOf(tch)
		if !ok {
			return fmt.Errorf("typecoin: missing carrier of %s", tch)
		}
		var inputs []Input
		var refs []chainhash.Hash
		if tx, ok := l.state.TxByHash(tch); ok {
			out = append(out, &Bundle{Tc: tx, Carrier: carrier})
			inputs = tx.Inputs
			refs = tx.ReferencedCarriers()
		} else if b, ok := l.state.BatchByHash(tch); ok {
			out = append(out, &Bundle{Batch: b, Carrier: carrier})
			inputs = b.Sources
			for _, c := range b.Seq {
				refs = append(refs, c.ReferencedCarriers()...)
			}
		} else {
			return fmt.Errorf("typecoin: missing upstream transaction %s", tch)
		}
		// Resource edges: the transactions whose outputs this one spends.
		for _, in := range inputs {
			if origin, ok := l.state.OriginOf(in.Source); ok {
				if err := walk(origin); err != nil {
					return err
				}
			} else if upstream, ok := l.originOfSpentLocked(in.Source); ok {
				if err := walk(upstream); err != nil {
					return err
				}
			}
		}
		// Basis edges: the transactions whose constants this one mentions
		// (needed even when no resource flows from them).
		for _, carrierID := range refs {
			if origin, ok := l.originByCarrierLocked(carrierID); ok {
				if err := walk(origin); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(start); err != nil {
		return nil, err
	}
	return out, nil
}

// originOfSpentLocked finds the producing transaction of an already
// consumed output by scanning applied transactions.
func (l *Ledger) originOfSpentLocked(op wire.OutPoint) (chainhash.Hash, bool) {
	for tch := range l.state.txs {
		carrier := l.state.carriers[tch]
		if carrier == op.Hash {
			tx := l.state.txs[tch]
			if int(op.Index) < len(tx.Outputs) {
				return tch, true
			}
		}
	}
	return chainhash.Hash{}, false
}

// CheckInstance validates a transaction against the current ledger state
// with conditions judged at the chain tip — the escrow agent's
// "sign any instance of the transaction that type checks" policy.
func (l *Ledger) CheckInstance(tx *Tx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	height := l.chain.BestHeight()
	blk, ok := l.chain.BlockAtHeight(height)
	if !ok {
		return errors.New("typecoin: no chain tip")
	}
	_, err := l.state.CheckTx(tx, OracleAt(l.chain, blk, height))
	return err
}

// originByCarrierLocked finds the applied Typecoin/batch hash whose
// carrier is carrierID.
func (l *Ledger) originByCarrierLocked(carrierID chainhash.Hash) (chainhash.Hash, bool) {
	for tch, c := range l.state.carriers {
		if c == carrierID {
			return tch, true
		}
	}
	return chainhash.Hash{}, false
}

// Rescan rebuilds the ledger state from the whole main chain against the
// currently known announcement set.
func (l *Ledger) Rescan() { l.rebuild() }

// KnownObject returns the announced object (a *FallbackList or *Batch)
// for a commitment hash, so a node can answer overlay re-requests
// (tcget) from peers that saw the carrier confirm without the object.
func (l *Ledger) KnownObject(h chainhash.Hash) (interface{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	obj, ok := l.known[h]
	return obj, ok
}

// MissingAnnouncements returns the commitment hashes of metadata-bearing
// carriers observed on the main chain whose Typecoin objects have never
// been announced to this ledger — the set to re-request from peers after
// a partition heals.
func (l *Ledger) MissingAnnouncements() []chainhash.Hash {
	l.mu.Lock()
	defer l.mu.Unlock()
	var missing []chainhash.Hash
	for h := range l.seen {
		if _, ok := l.known[h]; !ok {
			missing = append(missing, h)
		}
	}
	return missing
}

// AuditAffine checks the ledger's affine invariant: the state audit plus
// the requirement that every applied carrier is still on the main chain.
func (l *Ledger) AuditAffine() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.state.AuditAffine(); err != nil {
		return err
	}
	for carrierID := range l.applied {
		if _, _, ok := l.chain.BlockOf(carrierID); !ok {
			return fmt.Errorf("typecoin: applied carrier %s is not on the main chain", carrierID)
		}
	}
	return nil
}

// AppliedCount reports how many carriers have been applied (test helper).
func (l *Ledger) AppliedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.applied)
}
