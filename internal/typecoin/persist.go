package typecoin

// Ledger persistence. The typed state (global basis, unconsumed typed
// outputs) is a deterministic function of the chain and the announced
// object set, so it is never serialized: OpenLedger replays it from the
// recovered chain. What is persisted:
//
//	ka + commitment hash -> announced object ('L' fallback list / 'B'
//	                        batch). Announcements arrive out of band and
//	                        are written when they arrive — the one piece
//	                        of ledger state the chain cannot reproduce.
//	ls + commitment hash -> carrier txid. The seen index, contributed to
//	                        each block's atomic commit batch; redundant
//	                        with the chain and cross-checked on startup.
//	la + carrier txid    -> marker. Written once the carrier's Typecoin
//	                        transaction is applied; deleted in the chain's
//	                        own batch when the carrier's block disconnects.
//
// Writes are incremental: the ledger keeps the new announcements and the
// markers whose persisted state disagrees with the applied set, and each
// sweep writes just those as one batch — so an announcement and the
// markers it changes land together, and no store scan runs after open.
// A failed write keeps them pending for the next sweep. On startup every
// persisted marker must be reproduced by the replay, or name a carrier
// still on the main chain but short of minConf: any other marker means
// the store and chain diverged, and OpenLedger refuses to proceed.

import (
	"bytes"
	"errors"
	"fmt"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// ErrStateDiverged reports persisted ledger state that the chain replay
// cannot reproduce — the recovered chain and ledger disagree about what
// was applied.
var ErrStateDiverged = errors.New("typecoin: persisted ledger state diverges from chain replay")

func keyKnown(h chainhash.Hash) []byte    { return append([]byte("ka"), h[:]...) }
func keySeen(h chainhash.Hash) []byte     { return append([]byte("ls"), h[:]...) }
func keyApplied(id chainhash.Hash) []byte { return append([]byte("la"), id[:]...) }

const (
	annKindList  = 'L'
	annKindBatch = 'B'
)

func encodeAnnouncement(obj interface{}) []byte {
	switch obj := obj.(type) {
	case *FallbackList:
		out := []byte{annKindList, byte(len(obj.Txs))}
		for _, tx := range obj.Txs {
			b := tx.Bytes()
			out = append(out, byte(len(b)), byte(len(b)>>8), byte(len(b)>>16))
			out = append(out, b...)
		}
		return out
	case *Batch:
		return append([]byte{annKindBatch}, obj.Bytes()...)
	default:
		return nil
	}
}

func decodeAnnouncement(b []byte) (interface{}, error) {
	bad := errors.New("typecoin: corrupt announcement row")
	if len(b) < 1 {
		return nil, bad
	}
	switch b[0] {
	case annKindList:
		if len(b) < 2 {
			return nil, bad
		}
		n := int(b[1])
		b = b[2:]
		list := &FallbackList{}
		for i := 0; i < n; i++ {
			if len(b) < 3 {
				return nil, bad
			}
			l := int(b[0]) | int(b[1])<<8 | int(b[2])<<16
			b = b[3:]
			if len(b) < l {
				return nil, bad
			}
			tx, err := DecodeBytes(b[:l])
			if err != nil {
				return nil, err
			}
			list.Txs = append(list.Txs, tx)
			b = b[l:]
		}
		if len(b) != 0 {
			return nil, bad
		}
		return list, nil
	case annKindBatch:
		return DecodeBatch(bytes.NewReader(b[1:]))
	default:
		return nil, bad
	}
}

// OpenLedger creates a ledger persisted in c's store: previously
// announced objects are reloaded, the typed state is replayed from the
// recovered chain, and every persisted applied marker is verified
// against the replay (a marker the replay cannot reproduce returns
// ErrStateDiverged, unless its carrier is on the main chain but short
// of minConf). New announcements and applied markers are written
// through as they happen.
func OpenLedger(c *chain.Chain, minConf int) (*Ledger, error) {
	if minConf < 1 {
		minConf = 1
	}
	l := &Ledger{
		chain:   c,
		minConf: minConf,
		st:      c.Store(),
		state:   NewState(),
		known:   make(map[chainhash.Hash]interface{}),
		waiting: make(map[chainhash.Hash]chainhash.Hash),
		seen:    make(map[chainhash.Hash]chainhash.Hash),
		applied: make(map[chainhash.Hash]bool),
		dirty:   make(map[chainhash.Hash]bool),
	}
	// keyed visits every row under prefix with the hash its key names.
	keyed := func(prefix string, fn func(h chainhash.Hash, v []byte) error) error {
		return l.st.Iterate([]byte(prefix), func(k, v []byte) error {
			if len(k) != 2+32 {
				return fmt.Errorf("typecoin: malformed %s key", prefix)
			}
			var h chainhash.Hash
			copy(h[:], k[2:])
			return fn(h, v)
		})
	}
	err := keyed("ka", func(h chainhash.Hash, v []byte) error {
		obj, err := decodeAnnouncement(v)
		if err != nil {
			return err
		}
		l.known[h] = obj
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Nothing is applied yet, so every persisted marker starts out
	// dirty; the replay cancels each one it reproduces.
	err = keyed("la", func(id chainhash.Hash, _ []byte) error {
		l.flipLocked(id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.Subscribe(l.onChainChange)
	c.SubscribePersist(l.contribute)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.replayLocked()

	// Divergence check: anything a previous run recorded as applied must
	// be reproduced by this replay, unless its carrier is still on the
	// main chain but now short of minConf — a crash between a reorg's
	// disconnect and the ledger's next write leaves such a marker, and so
	// does a restart with a higher minConf; the flush below deletes it.
	// (The converse — replay applying more than was recorded — is normal:
	// the crash may have cut markers that the journal-recovered chain
	// still justifies; the flush below writes them.)
	for id := range l.dirty {
		if l.applied[id] {
			continue
		}
		if conf := c.Confirmations(id); conf == 0 || conf >= l.minConf {
			return nil, fmt.Errorf("%w: recorded applied carrier %s not reproduced", ErrStateDiverged, id)
		}
	}
	err = keyed("ls", func(h chainhash.Hash, v []byte) error {
		carrier, ok := l.seen[h]
		if !ok || !bytes.Equal(carrier[:], v) {
			return fmt.Errorf("%w: seen index row %s not reproduced", ErrStateDiverged, h)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.flushLocked()
	return l, nil
}

// contribute adds the seen-index rows for a block to its chain commit
// batch, and on disconnect deletes the block's applied markers with it,
// so a crash after the chain commit never leaves a marker for a carrier
// the chain no longer holds. It runs under the chain lock and is a pure
// function of the block — it must not take l.mu (sweep holds l.mu while
// reading chain state).
func (l *Ledger) contribute(ev chain.PersistEvent, b *store.Batch) {
	for _, btx := range ev.Block.Transactions {
		h, ok := ExtractMetaHash(btx)
		if !ok {
			continue
		}
		if ev.Connected {
			b.Put(keySeen(h), btx.TxHash().Bytes())
		} else {
			// If another main-chain carrier bears the same commitment
			// hash the row briefly vanishes; the reconnects of the same
			// reorg restore it, and startup only cross-checks rows that
			// exist.
			b.Delete(keySeen(h))
			b.Delete(keyApplied(btx.TxHash()))
		}
	}
}

// flipLocked records that carrier id's applied state or its persisted
// marker just changed. A known disagreement toggles: the flip either
// creates it or resolves it. Caller holds l.mu. A no-op for
// memory-only ledgers.
func (l *Ledger) flipLocked(id chainhash.Hash) {
	if l.st == nil {
		return
	}
	if unknown, ok := l.dirty[id]; !ok {
		l.dirty[id] = false
	} else if !unknown {
		delete(l.dirty, id)
	}
}

// markersDroppedLocked accounts for a disconnected block whose markers
// contribute deleted in the chain's own batch. A sweep racing the
// disconnect may have rewritten one after that delete, so each becomes
// unknown: the next successful flush writes it from applied, whatever
// flips come first. Caller holds l.mu.
func (l *Ledger) markersDroppedLocked(blk *wire.MsgBlock) {
	if l.st == nil {
		return
	}
	for _, btx := range blk.Transactions {
		if _, ok := ExtractMetaHash(btx); ok {
			l.dirty[btx.TxHash()] = true
		}
	}
}

// flushLocked writes the unsaved announcements and the dirty markers as
// one batch; caller holds l.mu. On failure both stay pending, so the
// next sweep retries them, and PersistErr reports the failure until
// then.
func (l *Ledger) flushLocked() {
	if len(l.unsaved) == 0 && len(l.dirty) == 0 {
		l.persistErr = nil // flips may have resolved a failed write
		return
	}
	b := store.NewBatch()
	for _, h := range l.unsaved {
		b.Put(keyKnown(h), encodeAnnouncement(l.known[h]))
	}
	for id := range l.dirty {
		if l.applied[id] {
			b.Put(keyApplied(id), []byte{1})
		} else {
			b.Delete(keyApplied(id))
		}
	}
	if l.persistErr = l.st.Apply(b); l.persistErr != nil {
		return
	}
	l.unsaved = l.unsaved[:0]
	clear(l.dirty)
}

// PersistErr reports the last failed write of announcements or applied
// markers, or nil once a later sweep has written them. A memory-only
// ledger always reports nil.
func (l *Ledger) PersistErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.persistErr
}
