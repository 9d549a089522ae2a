package main

import (
	"math/rand"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/client"
	"typecoin/internal/demo"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/typecoin"
	"typecoin/internal/wire"
)

// Lineage amounts. A transfer's typed output carries its input's
// satoshi minus the carrier fee, so a carrier needs no funding input:
// the wallet selects no coins and returns no change, and consecutive
// carriers of different lineages never depend on each other.
const (
	lineageAmount = 100_000_000 // 1 BTC: 2,000 transfers before it runs dry
	spareAmount   = 2 * client.Fee
	grantAmount   = 100_000
	markerAmount  = 10_000
	mergedAmount  = lineageAmount + grantAmount - client.Fee - markerAmount
)

// lineage is one chain of typed transfers held by a wallet key.
type lineage struct {
	kind   string // "tok", "newcoin" or "batch"
	owner  *bkey.PrivateKey
	op     wire.OutPoint // current typed output
	typ    logic.Prop    // its type, in the global namespace
	amount int64
	depth  int // bundles in its upstream set
	// marker adds a second output of type 1 paying the owner's
	// principal. The index records principal activity only for
	// pay-to-pubkey-hash outputs, so without it a carrier whose one
	// output is the 1-of-2 metadata output touches no principal.
	marker bool
}

// withMarker appends the marker output to tx and proves body (x) 1.
func withMarker(tx *typecoin.Tx, body proof.Term, owner *bkey.PublicKey) {
	tx.Outputs = append(tx.Outputs, typecoin.Output{Type: logic.One, Amount: markerAmount, Owner: owner})
	tx.Proof = demo.WithDomain(tx.Domain(), proof.Pair{L: body, R: proof.Unit{}})
}

// stepCost is what one transfer takes out of a lineage's satoshi.
func (l *lineage) stepCost() int64 {
	if l.marker {
		return client.Fee + markerAmount
	}
	return client.Fee
}

// newKey creates a wallet key.
func newKey(s *stack) (*bkey.PrivateKey, error) {
	p, err := s.wallet.NewKey()
	if err != nil {
		return nil, err
	}
	return s.wallet.Key(p)
}

// tokenGrant declares a fresh token family and grants it to owner.
func tokenGrant(owner *bkey.PublicKey, amount int64, marker bool) *typecoin.Tx {
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		panic("perfbench: declaring tok: " + err.Error())
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: amount, Owner: owner}}
	if marker {
		withMarker(tx, proof.V("c"), owner)
	} else {
		tx.Proof = demo.ProjectGrant(tx.Domain())
	}
	return tx
}

// tokenType is the global type of the token a grant carried by carrier
// declares.
func tokenType(carrier chainhash.Hash) logic.Prop {
	return logic.Atom(lf.TxRef(carrier, "tok"))
}

// multiGrant grants n outputs of one token to owner, each of amount.
func multiGrant(owner *bkey.PublicKey, n int, amount int64) *typecoin.Tx {
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		panic("perfbench: declaring tok: " + err.Error())
	}
	tok := logic.Atom(lf.This("tok"))
	grants := make([]logic.Prop, n)
	for i := range grants {
		grants[i] = tok
		tx.Outputs = append(tx.Outputs, typecoin.Output{Type: tok, Amount: amount, Owner: owner})
	}
	tx.Grant = logic.Tensor(grants...)
	tx.Proof = demo.ProjectGrant(tx.Domain())
	return tx
}

// transfer passes a lineage's resource to its owner again, paying the
// fee out of the resource's satoshi.
func transfer(l *lineage) *typecoin.Tx {
	tx := typecoin.NewTx()
	tx.Inputs = []typecoin.Input{{Source: l.op, Type: l.typ, Amount: l.amount}}
	tx.Outputs = []typecoin.Output{{Type: l.typ, Amount: l.amount - l.stepCost(), Owner: l.owner.PubKey()}}
	if l.marker {
		withMarker(tx, proof.V("a"), l.owner.PubKey())
	} else {
		tx.Proof = demo.PassInputs(tx.Domain())
	}
	return tx
}

// illTyped spends a typed output with a proof that produces the grant
// (1) where the output type is owed: Submit accepts it, the carrier
// anchors it, and the ledger must never apply it. Its input is spoiled
// (Section 5).
func illTyped(op wire.OutPoint, typ logic.Prop, amount int64, owner *bkey.PublicKey) *typecoin.Tx {
	tx := typecoin.NewTx()
	tx.Inputs = []typecoin.Input{{Source: op, Type: typ, Amount: amount}}
	tx.Outputs = []typecoin.Output{{Type: typ, Amount: amount - client.Fee, Owner: owner}}
	tx.Proof = demo.ProjectGrant(tx.Domain())
	return tx
}

// advance moves a lineage past a committed transfer.
func (l *lineage) advance(carrier chainhash.Hash) {
	l.op = wire.OutPoint{Hash: carrier, Index: 0}
	l.amount -= l.stepCost()
	l.depth++
}

// Newcoin (Section 6): a basis declaring coin : nat -> prop and the
// merge rule guarded by (some x:plus N M P. 1), granting coin a and
// coin b; the next transaction merges them with the E5 merge proof.

func coinAt(ref func(string) lf.Ref, n uint64) logic.Prop {
	return logic.Atom(ref("coin"), lf.Nat(n))
}

func plusGuard(n, m, p lf.Term) logic.Prop {
	return logic.Exists("x", lf.FamApp(lf.PlusFam, n, m, p), logic.One)
}

// newcoinBasis publishes the basis and grants coin a and coin b.
func newcoinBasis(owner *bkey.PublicKey, a, b uint64) *typecoin.Tx {
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("coin"), lf.KArrow(lf.NatFam, lf.KProp{})); err != nil {
		panic("perfbench: declaring coin: " + err.Error())
	}
	coinP := func(m lf.Term) logic.Prop { return logic.Atom(lf.This("coin"), m) }
	merge := logic.Forall("N", lf.NatFam, logic.Forall("M", lf.NatFam, logic.Forall("P", lf.NatFam,
		logic.Lolli(
			plusGuard(lf.Var(2, "N"), lf.Var(1, "M"), lf.Var(0, "P")),
			logic.Tensor(coinP(lf.Var(2, "N")), coinP(lf.Var(1, "M"))),
			coinP(lf.Var(0, "P"))))))
	if err := tx.Basis.DeclareProp(lf.This("merge"), merge); err != nil {
		panic("perfbench: declaring merge: " + err.Error())
	}
	this := func(label string) lf.Ref { return lf.This(label) }
	tx.Grant = logic.Tensor(coinAt(this, a), coinAt(this, b))
	tx.Outputs = []typecoin.Output{
		{Type: coinAt(this, a), Amount: lineageAmount, Owner: owner},
		{Type: coinAt(this, b), Amount: grantAmount, Owner: owner},
	}
	tx.Proof = demo.ProjectGrant(tx.Domain())
	return tx
}

// newcoinMerge merges the two coins the basis carried by basisID
// granted, with a marker output.
func newcoinMerge(basisID chainhash.Hash, owner *bkey.PublicKey, a, b uint64) *typecoin.Tx {
	ref := func(label string) lf.Ref { return lf.TxRef(basisID, label) }
	tx := typecoin.NewTx()
	tx.Inputs = []typecoin.Input{
		{Source: wire.OutPoint{Hash: basisID, Index: 0}, Type: coinAt(ref, a), Amount: lineageAmount},
		{Source: wire.OutPoint{Hash: basisID, Index: 1}, Type: coinAt(ref, b), Amount: grantAmount},
	}
	tx.Outputs = []typecoin.Output{{Type: coinAt(ref, a+b), Amount: mergedAmount, Owner: owner}}
	guard := proof.Pack{
		Witness: lf.App(lf.PlusIntro, lf.Nat(a), lf.Nat(b)),
		Of:      proof.Unit{},
		As:      plusGuard(lf.Nat(a), lf.Nat(b), lf.Nat(a+b)),
	}
	withMarker(tx, proof.Apply(
		proof.TApply(proof.Const{Ref: ref("merge")}, lf.Nat(a), lf.Nat(b), lf.Nat(a+b)),
		guard, proof.V("a")), owner)
	return tx
}

// offChainTransfer is a batch-mode transfer: the off-chain domain has
// no receipts to thread through.
func offChainTransfer(op wire.OutPoint, typ logic.Prop, amount int64, owner *bkey.PublicKey) *typecoin.Tx {
	tx := typecoin.NewTx()
	tx.Inputs = []typecoin.Input{{Source: op, Type: typ, Amount: amount}}
	tx.Outputs = []typecoin.Output{{Type: typ, Amount: amount, Owner: owner}}
	tx.Proof = demo.WithDomain(tx.DomainOffChain(), proof.V("a"))
	return tx
}

// foreignPrincipal is a deterministic principal no wallet controls.
func foreignPrincipal(rng *rand.Rand) bkey.Principal {
	var p bkey.Principal
	rng.Read(p[:])
	return p
}
