// Package testutil provides deterministic helpers shared by tests and
// benchmarks: a seeded entropy stream and a pre-wired regtest harness
// (chain + mempool + miner + wallet) with spendable funds.
package testutil

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/wallet"
)

// Entropy is a deterministic io.Reader derived from a seed by iterated
// SHA-256, so tests generate reproducible keys.
type Entropy struct {
	state [32]byte
	buf   []byte
}

// NewEntropy creates a deterministic entropy stream.
func NewEntropy(seed string) *Entropy {
	return &Entropy{state: sha256.Sum256([]byte(seed))}
}

// Read fills p with pseudo-random bytes.
func (e *Entropy) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(e.buf) == 0 {
			e.state = sha256.Sum256(e.state[:])
			e.buf = append(e.buf[:0], e.state[:]...)
		}
		c := copy(p[n:], e.buf)
		e.buf = e.buf[c:]
		n += c
	}
	return n, nil
}

var _ io.Reader = (*Entropy)(nil)

// replayDigests holds the first digest each scenario logged in this
// test process, so reruns under -cpu 1,2,8 or -count must match it.
var replayDigests sync.Map

// CheckReplay logs a digest of a scenario's deterministic output as
// "replay digest <key>=<hex>" and fails if an earlier run of the same
// scenario in this process logged a different one. make replay also
// compares the logged digests between the race and non-race builds.
func CheckReplay(tb testing.TB, key, output string) {
	tb.Helper()
	sum := sha256.Sum256([]byte(output))
	digest := hex.EncodeToString(sum[:8])
	tb.Logf("replay digest %s=%s", key, digest)
	if prev, loaded := replayDigests.LoadOrStore(key, digest); loaded && prev != digest {
		tb.Fatalf("%s replayed to digest %s; an earlier run in this process gave %s", key, digest, prev)
	}
}

// Harness bundles a regtest node's components with a funded wallet.
type Harness struct {
	Params *chain.Params
	Clock  *clock.Simulated
	Chain  *chain.Chain
	Pool   *mempool.Pool
	Miner  *miner.Miner
	Wallet *wallet.Wallet
	// MinerKey receives block subsidies.
	MinerKey bkey.Principal
}

// NewHarness builds a regtest harness. The simulated clock starts just
// after the genesis timestamp.
func NewHarness(tb testing.TB, seed string) *Harness {
	tb.Helper()
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	c := chain.New(params, clk)
	pool := mempool.New(c, -1)
	w := wallet.New(c, NewEntropy(seed))
	minerKey, err := w.NewKey()
	if err != nil {
		tb.Fatalf("harness: new key: %v", err)
	}
	m := miner.New(c, pool, clk)
	return &Harness{
		Params:   params,
		Clock:    clk,
		Chain:    c,
		Pool:     pool,
		Miner:    m,
		Wallet:   w,
		MinerKey: minerKey,
	}
}

// MineBlocks mines n blocks paying the harness miner key, advancing the
// clock by the target spacing per block.
func (h *Harness) MineBlocks(tb testing.TB, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		h.Clock.Advance(h.Params.TargetSpacing)
		if _, _, err := h.Miner.Mine(h.MinerKey); err != nil {
			tb.Fatalf("harness: mine: %v", err)
		}
	}
}

// Fund mines enough blocks that the wallet holds at least one mature
// coinbase (maturity + 1 blocks).
func (h *Harness) Fund(tb testing.TB) {
	tb.Helper()
	h.MineBlocks(tb, h.Params.CoinbaseMaturity+1)
	if h.Wallet.Balance() == 0 {
		tb.Fatal("harness: wallet unfunded after maturity blocks")
	}
}
