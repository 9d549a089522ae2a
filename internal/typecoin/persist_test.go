package typecoin

import (
	"errors"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/store"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// persistNode is a regtest node whose chain and ledger persist in st.
type persistNode struct {
	params *chain.Params
	clk    *clock.Simulated
	st     store.Store
	chain  *chain.Chain
	pool   *mempool.Pool
	wallet *wallet.Wallet
	miner  *miner.Miner
	payout bkey.Principal
	ledger *Ledger
}

// newPersistNode opens a funded node over st whose ledger applies at
// minConf; subscribe, when non-nil, registers a chain subscriber that
// runs before the ledger's.
func newPersistNode(t *testing.T, st store.Store, minConf int, subscribe func(chain.Notification)) *persistNode {
	t.Helper()
	params := chain.RegTestParams()
	n := &persistNode{
		params: params,
		clk:    clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute)),
		st:     st,
	}
	var err error
	if n.chain, err = chain.Open(chain.Config{Params: params, Clock: n.clk, Store: st}); err != nil {
		t.Fatal(err)
	}
	n.pool = mempool.New(n.chain, -1)
	n.wallet = wallet.New(n.chain, &detEntropy{})
	if n.payout, err = n.wallet.NewKey(); err != nil {
		t.Fatal(err)
	}
	n.miner = miner.New(n.chain, n.pool, n.clk)
	n.mine(t, params.CoinbaseMaturity+1)
	if subscribe != nil {
		n.chain.Subscribe(subscribe)
	}
	if n.ledger, err = OpenLedger(n.chain, minConf); err != nil {
		t.Fatal(err)
	}
	return n
}

func (n *persistNode) mine(t *testing.T, blocks int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		n.clk.Advance(n.params.TargetSpacing)
		if _, _, err := n.miner.Mine(n.payout); err != nil {
			t.Fatal(err)
		}
	}
}

// submitGrant builds a fresh grant and puts its carrier in the mempool;
// the caller announces it and mines.
func (n *persistNode) submitGrant(t *testing.T, amount int64) (*Tx, *wire.MsgTx) {
	t.Helper()
	key, err := n.wallet.Key(n.payout)
	if err != nil {
		t.Fatal(err)
	}
	grant := grantTx(t, declTok(t), tok(), key.PubKey(), amount)
	outs, err := CarrierOutputs(grant)
	if err != nil {
		t.Fatal(err)
	}
	wOuts := make([]wallet.Output, len(outs))
	for i, o := range outs {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := n.wallet.Build(wOuts, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.pool.Accept(carrier); err != nil {
		t.Fatal(err)
	}
	return grant, carrier
}

func (n *persistNode) hasMarker(t *testing.T, carrier chainhash.Hash) bool {
	t.Helper()
	ok, err := n.st.Has(keyApplied(carrier))
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestOpenLedgerRejectsUnreproducedAppliedMarker(t *testing.T) {
	st := store.NewMem()
	n := newPersistNode(t, st, 1, nil)
	grant, carrierTx := n.submitGrant(t, 500)
	carrier := carrierTx.TxHash()
	n.ledger.Announce(grant)
	n.mine(t, 1)
	if !n.ledger.Applied(carrier) || !n.hasMarker(t, carrier) {
		t.Fatal("grant not applied and recorded")
	}

	// Markers no replay can reproduce: the store claims more than the
	// chain justifies, whether the carrier is off the chain or deep in
	// it without a typed transaction.
	block1, _ := n.chain.BlockAtHeight(1)
	for _, bogus := range []chainhash.Hash{
		chainhash.HashB([]byte("never anchored")),
		block1.Transactions[0].TxHash(),
	} {
		b := store.NewBatch()
		b.Put(keyApplied(bogus), []byte{1})
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
		ch, err := chain.Open(chain.Config{Params: n.params, Clock: n.clk, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLedger(ch, 1); !errors.Is(err, ErrStateDiverged) {
			t.Fatalf("OpenLedger over bogus marker %s: err %v, want ErrStateDiverged", bogus, err)
		}
		// The refused open leaves the evidence in place.
		if !n.hasMarker(t, bogus) || !n.hasMarker(t, carrier) {
			t.Fatal("refused open rewrote the persisted markers")
		}
		b = store.NewBatch()
		b.Delete(keyApplied(bogus))
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenLedgerAcceptsMarkersShortOfMinConf checks that a marker whose
// carrier is still on the main chain but below minConf is not
// divergence: OpenLedger deletes it, and a later open that reaches the
// depth again records it again. Such markers are left by a crash right
// after a reorg's disconnect batch and by a restart with a higher
// minConf.
func TestOpenLedgerAcceptsMarkersShortOfMinConf(t *testing.T) {
	t.Run("crash after disconnect", func(t *testing.T) {
		inner := store.NewMem()
		fe := store.NewFaultEngine(inner, 1)
		n := newPersistNode(t, fe, 2, nil)
		grant, carrierTx := n.submitGrant(t, 500)
		carrier := carrierTx.TxHash()
		n.ledger.Announce(grant)
		n.mine(t, 1)
		forkPoint := n.chain.BestHeight()
		n.mine(t, 1)
		if !n.ledger.Applied(carrier) || !n.hasMarker(t, carrier) {
			t.Fatal("grant not applied and recorded at two confirmations")
		}

		// A fork from the carrier's block outgrows the tip. The store dies
		// right after the reorg's disconnect batch, which leaves the
		// carrier with one confirmation and its marker in place.
		fork := chain.New(n.params, n.clk)
		for h := 1; h <= forkPoint; h++ {
			blk, _ := n.chain.BlockAtHeight(h)
			if _, err := fork.ProcessBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
		forkMiner := miner.New(fork, nil, n.clk)
		n.chain.SubscribePersist(func(ev chain.PersistEvent, _ *store.Batch) {
			if !ev.Connected {
				fe.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindKill, After: 1})
			}
		})
		var reorgErr error
		for i := 0; i < 2 && reorgErr == nil; i++ {
			blk, _, err := forkMiner.Mine(n.payout)
			if err != nil {
				t.Fatal(err)
			}
			_, reorgErr = n.chain.ProcessBlock(blk)
		}
		if reorgErr == nil {
			t.Fatal("reorg survived the killed store")
		}

		ch, err := chain.Open(chain.Config{Params: n.params, Clock: n.clk, Store: inner})
		if err != nil {
			t.Fatal(err)
		}
		if got := ch.Confirmations(carrier); got != 1 {
			t.Fatalf("carrier has %d confirmations after the disconnect, want 1", got)
		}
		if ok, _ := inner.Has(keyApplied(carrier)); !ok {
			t.Fatal("marker gone before the reopen: the scenario tests nothing")
		}
		l, err := OpenLedger(ch, 2)
		if err != nil {
			t.Fatalf("reopen after the disconnect batch: %v", err)
		}
		if l.Applied(carrier) {
			t.Fatal("carrier applied below minConf")
		}
		if ok, _ := inner.Has(keyApplied(carrier)); ok {
			t.Fatal("marker of a carrier below minConf survived the open")
		}
	})

	t.Run("raised minConf", func(t *testing.T) {
		st := store.NewMem()
		n := newPersistNode(t, st, 1, nil)
		grant, carrierTx := n.submitGrant(t, 500)
		carrier := carrierTx.TxHash()
		n.ledger.Announce(grant)
		n.mine(t, 1)
		if !n.hasMarker(t, carrier) {
			t.Fatal("marker missing after confirmation")
		}
		for _, minConf := range []int{2, 1} {
			ch, err := chain.Open(chain.Config{Params: n.params, Clock: n.clk, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			l, err := OpenLedger(ch, minConf)
			if err != nil {
				t.Fatalf("reopen at minConf %d: %v", minConf, err)
			}
			want := minConf == 1
			if l.Applied(carrier) != want || n.hasMarker(t, carrier) != want {
				t.Fatalf("minConf %d: applied %v, marker %v, want %v", minConf,
					l.Applied(carrier), n.hasMarker(t, carrier), want)
			}
		}
	})
}

func TestLedgerMarkerWriteRetriedAfterFailure(t *testing.T) {
	fe := store.NewFaultEngine(store.NewMem(), 1)
	n := newPersistNode(t, fe, 1, nil)

	// Announce after mining, so the announcement's sweep applies the
	// grant at once and its one write (announcement plus marker) is the
	// next Apply: fail exactly that one.
	grant, carrierTx := n.submitGrant(t, 500)
	carrier := carrierTx.TxHash()
	n.mine(t, 1)
	fe.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindEIO, Mode: store.ModeOneShot})
	n.ledger.Announce(grant)
	if !n.ledger.Applied(carrier) {
		t.Fatal("grant not applied")
	}
	if n.ledger.PersistErr() == nil {
		t.Fatal("failed marker write not reported")
	}
	if n.hasMarker(t, carrier) {
		t.Fatal("marker present although its write failed")
	}

	// The next sweep retries the pending write.
	n.mine(t, 1)
	if err := n.ledger.PersistErr(); err != nil {
		t.Fatalf("write still failing after retry: %v", err)
	}
	if !n.hasMarker(t, carrier) {
		t.Fatal("marker missing after the next block")
	}

	// Steady state after open scans nothing: announce and connect cost
	// O(changes), not O(store).
	iterates := fe.OpCalls(store.OpIterate)
	carriers := []chainhash.Hash{carrier}
	for i := 0; i < 100; i++ {
		grant, carrierTx := n.submitGrant(t, int64(600+i))
		carrier := carrierTx.TxHash()
		n.ledger.Announce(grant)
		n.mine(t, 1)
		if !n.ledger.Applied(carrier) {
			t.Fatalf("cycle %d: grant not applied", i)
		}
		carriers = append(carriers, carrier)
	}
	if got := fe.OpCalls(store.OpIterate); got != iterates {
		t.Fatalf("store scans grew from %d to %d over 100 announce+connect cycles", iterates, got)
	}

	// A reopen reproduces every recorded marker.
	ch, err := chain.Open(chain.Config{Params: n.params, Clock: n.clk, Store: fe})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenLedger(ch, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, c := range carriers {
		if !reopened.Applied(c) || !n.hasMarker(t, c) {
			t.Fatalf("carrier %s not applied and recorded after reopen", c)
		}
	}
}

// TestLedgerDisconnectDeletesMarkers checks that a carrier's marker
// leaves the store in the chain's own disconnect batch: even when every
// ledger write after the reorg fails, a reopen finds no marker the
// replay cannot justify. Once the store recovers, the re-mined carrier
// is recorded again.
func TestLedgerDisconnectDeletesMarkers(t *testing.T) {
	inner := store.NewMem()
	fe := store.NewFaultEngine(inner, 1)
	n := newPersistNode(t, fe, 1, func(ev chain.Notification) {
		if !ev.Connected {
			fe.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindEIO, Mode: store.ModeSticky})
		}
	})

	// A fork node shares the chain up to here, then outgrows it with two
	// empty blocks that leave the carrier out.
	fork := chain.New(n.params, n.clk)
	for h := 1; h <= n.chain.BestHeight(); h++ {
		blk, _ := n.chain.BlockAtHeight(h)
		if _, err := fork.ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	forkMiner := miner.New(fork, nil, n.clk)

	grant, carrierTx := n.submitGrant(t, 500)
	carrier := carrierTx.TxHash()
	n.ledger.Announce(grant)
	n.mine(t, 1)
	if !n.hasMarker(t, carrier) {
		t.Fatal("marker missing after confirmation")
	}

	for i := 0; i < 2; i++ {
		blk, _, err := forkMiner.Mine(n.payout)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.chain.ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if n.chain.BestHash() != fork.BestHash() {
		t.Fatal("fork did not become the main chain")
	}
	if n.ledger.Applied(carrier) {
		t.Fatal("carrier still applied after its block left the chain")
	}
	if n.ledger.PersistErr() == nil {
		t.Fatal("ledger write after the reorg did not fail")
	}
	if n.hasMarker(t, carrier) {
		t.Fatal("marker outlived its block")
	}
	// Crash here: the store holds the chain's reorg and nothing the
	// ledger wrote after it.
	ch, err := chain.Open(chain.Config{Params: n.params, Clock: n.clk, Store: inner})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLedger(ch, 1); err != nil {
		t.Fatalf("reopen after reorg: %v", err)
	}

	// The disk recovers and the carrier confirms again.
	fe.Clear()
	if _, err := n.pool.Accept(carrierTx); err != nil && !errors.Is(err, mempool.ErrAlreadyKnown) {
		t.Fatal(err)
	}
	n.mine(t, 1)
	if !n.ledger.Applied(carrier) || !n.hasMarker(t, carrier) {
		t.Fatal("re-mined carrier not applied and recorded")
	}
	if err := n.ledger.PersistErr(); err != nil {
		t.Fatalf("ledger write still failing: %v", err)
	}
}
