package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// engines returns a fresh instance of each engine for contract tests.
func engines(t *testing.T) map[string]Store {
	t.Helper()
	file, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	mem := NewMem()
	t.Cleanup(func() { mem.Close() })
	return map[string]Store{"mem": mem, "file": file}
}

func TestStoreContract(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := st.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get missing: %v", err)
			}
			b := NewBatch()
			b.Put([]byte("a1"), []byte("v1"))
			b.Put([]byte("a2"), []byte("v2"))
			b.Put([]byte("b1"), []byte("v3"))
			b.Delete([]byte("never-existed"))
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
			v, err := st.Get([]byte("a2"))
			if err != nil || string(v) != "v2" {
				t.Fatalf("Get a2 = %q, %v", v, err)
			}
			ok, err := st.Has([]byte("b1"))
			if err != nil || !ok {
				t.Fatalf("Has b1 = %v, %v", ok, err)
			}

			// Overwrite and delete in one batch.
			b2 := NewBatch()
			b2.Put([]byte("a1"), []byte("v1b"))
			b2.Delete([]byte("b1"))
			if err := st.Apply(b2); err != nil {
				t.Fatal(err)
			}
			if v, _ := st.Get([]byte("a1")); string(v) != "v1b" {
				t.Fatalf("overwrite lost: %q", v)
			}
			if ok, _ := st.Has([]byte("b1")); ok {
				t.Fatal("b1 survived delete")
			}

			// Prefix iteration in ascending order.
			var got []string
			err = st.Iterate([]byte("a"), func(k, v []byte) error {
				got = append(got, string(k)+"="+string(v))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a1=v1b", "a2=v2"}
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("Iterate = %v, want %v", got, want)
			}

			// Iteration error propagates.
			sentinel := errors.New("stop")
			if err := st.Iterate(nil, func(k, v []byte) error { return sentinel }); !errors.Is(err, sentinel) {
				t.Fatalf("Iterate error = %v", err)
			}

			// Block log round trip.
			blob := bytes.Repeat([]byte{0xab}, 1000)
			ref, err := st.AppendBlock(blob)
			if err != nil {
				t.Fatal(err)
			}
			back, err := st.ReadBlock(ref)
			if err != nil || !bytes.Equal(back, blob) {
				t.Fatalf("ReadBlock mismatch: %v", err)
			}
			if _, err := st.ReadBlock(BlockRef{Offset: ref.Offset + 1, Len: ref.Len}); err == nil {
				t.Fatal("ReadBlock at bogus offset succeeded")
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreClosedErrors(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get([]byte("k")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Get after close: %v", err)
			}
			if err := st.Apply(NewBatch()); !errors.Is(err, ErrClosed) {
				t.Fatalf("Apply after close: %v", err)
			}
		})
	}
}

// fillBatch writes n keyed pairs under prefix in one batch.
func fillBatch(t *testing.T, st Store, prefix string, n int) {
	t.Helper()
	b := NewBatch()
	for i := 0; i < n; i++ {
		b.Put([]byte(fmt.Sprintf("%s%04d", prefix, i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
}

func TestFileReopenPreservesState(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, st, "k", 100)
	ref, err := st.AppendBlock([]byte("block body"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	b.Delete([]byte("k0042"))
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() != 0 {
		t.Fatalf("clean close reported %d torn bytes", st2.TruncatedBytes())
	}
	if v, _ := st2.Get([]byte("k0007")); string(v) != "val-7" {
		t.Fatalf("k0007 = %q after reopen", v)
	}
	if ok, _ := st2.Has([]byte("k0042")); ok {
		t.Fatal("deleted key resurrected by reopen")
	}
	if back, err := st2.ReadBlock(ref); err != nil || string(back) != "block body" {
		t.Fatalf("block after reopen: %q, %v", back, err)
	}
}

func TestFileTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, st, "good", 10)
	st.Close()

	// Simulate a crash mid-batch: append half a frame to the journal.
	logPath := filepath.Join(dir, "kv-1.log")
	full := appendFrame(nil, encodeBatchPayload(func() *Batch {
		b := NewBatch()
		b.Put([]byte("torn-key"), []byte("torn-value"))
		return b
	}()))
	lf, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	lf.Close()

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() != int64(len(full)/2) {
		t.Fatalf("TruncatedBytes = %d, want %d", st2.TruncatedBytes(), len(full)/2)
	}
	if ok, _ := st2.Has([]byte("torn-key")); ok {
		t.Fatal("torn batch became visible")
	}
	if v, _ := st2.Get([]byte("good0003")); string(v) != "val-3" {
		t.Fatalf("committed data lost with the tail: %q", v)
	}
	// The file must have been physically truncated so new appends start
	// at a clean frame boundary.
	b := NewBatch()
	b.Put([]byte("after"), []byte("crash"))
	if err := st2.Apply(b); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if v, _ := st3.Get([]byte("after")); string(v) != "crash" {
		t.Fatalf("post-crash append lost: %q", v)
	}
}

func TestFileCrashNextApplyTearsFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, st, "pre", 5)
	st.CrashNextApply(9) // header plus one payload byte
	b := NewBatch()
	b.Put([]byte("doomed"), []byte("batch"))
	if err := st.Apply(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("crashing apply: %v", err)
	}
	if _, err := st.Get([]byte("pre0001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("store not poisoned: %v", err)
	}

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() == 0 {
		t.Fatal("no torn bytes recovered")
	}
	if ok, _ := st2.Has([]byte("doomed")); ok {
		t.Fatal("torn batch visible after recovery")
	}
	if v, _ := st2.Get([]byte("pre0001")); string(v) != "val-1" {
		t.Fatalf("pre-crash data lost: %q", v)
	}
}

func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCompactMin(1024)
	// Overwrite one key many times: almost all journal bytes are dead.
	val := bytes.Repeat([]byte{'x'}, 64)
	for i := 0; i < 200; i++ {
		b := NewBatch()
		b.Put([]byte("hot"), append(val, byte(i)))
		b.Put([]byte(fmt.Sprintf("cold%02d", i%4)), []byte("v"))
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if st.gen == 1 {
		t.Fatal("compaction never triggered")
	}
	// The live generation should be small.
	entries, _ := os.ReadDir(dir)
	var logs int
	for _, e := range entries {
		if len(e.Name()) > 3 && e.Name()[:3] == "kv-" {
			logs++
		}
	}
	if logs != 1 {
		t.Fatalf("found %d kv logs after compaction, want 1", logs)
	}
	st.Close()

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	want := append(val, byte(199))
	if v, _ := st2.Get([]byte("hot")); !bytes.Equal(v, want) {
		t.Fatalf("hot key lost by compaction: %q", v)
	}
	if ok, _ := st2.Has([]byte("cold03")); !ok {
		t.Fatal("cold key lost by compaction")
	}
}

func TestFileStaleGenerationSwept(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, st, "k", 3)
	st.Close()
	// A compaction that crashed after writing the next generation but
	// before the manifest swap leaves an orphan log.
	if err := os.WriteFile(filepath.Join(dir, "kv-9.log"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if v, _ := st2.Get([]byte("k0001")); string(v) != "val-1" {
		t.Fatalf("live generation lost: %q", v)
	}
	if _, err := os.Stat(filepath.Join(dir, "kv-9.log")); !os.IsNotExist(err) {
		t.Fatal("stale generation not swept")
	}
}

func TestFaultWrapperKillsNthApply(t *testing.T) {
	dir := t.TempDir()
	inner, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := NewFaultEngine(inner, 0)
	st.Inject(FaultRule{Op: OpApply, Kind: KindKill, Mode: ModeOneShot, After: 2, TearBytes: 10})
	for i := 0; i < 2; i++ {
		b := NewBatch()
		b.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err := st.Apply(b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	b := NewBatch()
	b.Put([]byte("k2"), []byte("v"))
	if err := st.Apply(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("third apply should die: %v", err)
	}
	if _, err := st.Get([]byte("k0")); !errors.Is(err, ErrClosed) {
		t.Fatalf("wrapper not dead after fault: %v", err)
	}
	st.Close()

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() == 0 {
		t.Fatal("expected torn bytes from the teared apply")
	}
	if ok, _ := st2.Has([]byte("k1")); !ok {
		t.Fatal("committed batch lost")
	}
	if ok, _ := st2.Has([]byte("k2")); ok {
		t.Fatal("killed batch visible")
	}
}

func TestMemAndFileAgree(t *testing.T) {
	dir := t.TempDir()
	file, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	mem := NewMem()
	// A deterministic mixed workload applied to both engines must yield
	// identical iteration results.
	for round := 0; round < 50; round++ {
		b1, b2 := NewBatch(), NewBatch()
		for j := 0; j < 8; j++ {
			k := []byte(fmt.Sprintf("key-%02d", (round*7+j*13)%40))
			if (round+j)%5 == 0 {
				b1.Delete(k)
				b2.Delete(k)
			} else {
				v := []byte(fmt.Sprintf("val-%d-%d", round, j))
				b1.Put(k, v)
				b2.Put(k, v)
			}
		}
		if err := file.Apply(b1); err != nil {
			t.Fatal(err)
		}
		if err := mem.Apply(b2); err != nil {
			t.Fatal(err)
		}
	}
	dump := func(st Store) []string {
		var out []string
		st.Iterate(nil, func(k, v []byte) error {
			out = append(out, string(k)+"="+string(v))
			return nil
		})
		return out
	}
	fd, md := dump(file), dump(mem)
	if len(fd) != len(md) {
		t.Fatalf("engines diverge: file %d keys, mem %d keys", len(fd), len(md))
	}
	for i := range fd {
		if fd[i] != md[i] {
			t.Fatalf("engines diverge at %d: %q vs %q", i, fd[i], md[i])
		}
	}
}

// TestSmallBatchesPinTheirOwnSize applies 10k one-row batches shaped
// like ledger markers. The file engine keeps every applied value slice,
// and with it the batch arena chunk behind it, so a fixed 16KiB first
// chunk would pin about 160MB here.
func TestSmallBatchesPinTheirOwnSize(t *testing.T) {
	f, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10_000; i++ {
		b := NewBatch()
		b.Put([]byte(fmt.Sprintf("la%032d", i)), []byte{1})
		if err := f.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("HeapInuse grew by %d bytes", grew)
	if grew >= 4<<20 {
		t.Fatalf("10k one-row batches raised HeapInuse by %d bytes, want < 4MiB", grew)
	}
	runtime.KeepAlive(f)
}

// TestPrefixScanAllocatesForMatches checks that a prefix scan over a
// large table allocates for the keys it visits, not for every key the
// table holds.
func TestPrefixScanAllocatesForMatches(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			b := NewBatch()
			for i := 0; i < 10_000; i++ {
				b.Put([]byte(fmt.Sprintf("bulk%08d", i)), []byte{1})
			}
			b.Put([]byte("one"), []byte{1})
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
			const scans = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < scans; i++ {
				visited := 0
				err := IterateFrom(st, []byte("one"), nil, func(k, v []byte) error {
					visited++
					return nil
				})
				if err != nil || visited != 1 {
					t.Fatalf("scan visited %d keys, err %v", visited, err)
				}
			}
			runtime.ReadMemStats(&after)
			if perScan := (after.TotalAlloc - before.TotalAlloc) / scans; perScan >= 4<<10 {
				t.Fatalf("a one-key prefix scan over 10k keys allocated %d bytes", perScan)
			}
		})
	}
}
