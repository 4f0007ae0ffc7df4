package guestmem

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"github.com/severifast/severifast/internal/rmp"
	"github.com/severifast/severifast/internal/telemetry"
)

// forkDonor builds a donor memory with a mix of private and shared
// resident pages, as a booted guest would have.
func forkDonor(t *testing.T) *Memory {
	t.Helper()
	m := New(1 << 20)
	m.SetKey(key(7), 3)
	private := []byte("kernel text measured and encrypted at launch")
	if err := m.HostWrite(0x1000, private); err != nil {
		t.Fatal(err)
	}
	if err := m.LaunchUpdateFlip(0x1000, len(private)); err != nil {
		t.Fatal(err)
	}
	shared := []byte("shared staging area, host visible")
	if err := m.HostWrite(0x8000, shared); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForkRoundTrip(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	if len(src.Pages()) == 0 {
		t.Fatal("fork source exported no pages")
	}

	child := New(1 << 20)
	child.SetKey(donor.Key(), 3)
	if err := child.AdoptFork(src); err != nil {
		t.Fatal(err)
	}

	// The fork sees the donor's exact contents, private and shared.
	for _, gpa := range []uint64{0x1000, 0x8000} {
		want, err := donor.GuestRead(gpa, 64, gpa == 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		got, err := child.GuestRead(gpa, 64, gpa == 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fork guest view at %#x differs from donor", gpa)
		}
	}
	// Host-visible ciphertext is identical too: the cipher is
	// (key, asid, pn)-tweaked, and the fork shares all three.
	wantCT, err := donor.HostRead(0x1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	gotCT, err := child.HostRead(0x1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCT, wantCT) {
		t.Fatal("fork host-visible ciphertext differs from donor")
	}
}

func TestForkCoWIsolation(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	child := New(1 << 20)
	child.SetKey(donor.Key(), 3)
	if err := child.AdoptFork(src); err != nil {
		t.Fatal(err)
	}
	// A write in the fork must not leak into the donor (or the blob).
	if err := child.HostWrite(0x8000, []byte("forked write")); err != nil {
		t.Fatal(err)
	}
	donorView, err := donor.GuestRead(0x8000, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(donorView, []byte("forked write")) {
		t.Fatal("fork write leaked into the donor: CoW break missing")
	}
}

func TestForkTamperDetected(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	// Host-side bit flip in the shared fork blob between capture and
	// adopt: the root digest re-check must refuse the fork.
	src.Blob().Corrupt(100, 0x40)
	child := New(1 << 20)
	child.SetKey(donor.Key(), 3)
	if err := child.AdoptFork(src); !errors.Is(err, ErrForkTampered) {
		t.Fatalf("AdoptFork after blob corruption = %v, want ErrForkTampered", err)
	}
}

func TestForkSizeAndKeyChecks(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	small := New(1 << 16)
	if err := small.AdoptFork(src); !errors.Is(err, ErrSize) {
		t.Fatalf("AdoptFork into smaller guest = %v, want ErrSize", err)
	}
	keyless := New(1 << 20)
	if err := keyless.AdoptFork(src); !errors.Is(err, ErrNoKey) {
		t.Fatalf("AdoptFork without key = %v, want ErrNoKey", err)
	}
}

// forkOf adopts src into a fresh guest sharing the donor's key and
// ASID, with its own RMP table.
func forkOf(t *testing.T, donor *Memory, src *ForkSource) *Memory {
	t.Helper()
	m := New(donor.Size())
	m.SetKey(donor.Key(), 3)
	m.AttachRMP(rmp.New(), 3)
	if err := m.AdoptFork(src); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestForkSiblingIsolation mutates one fork through every state-changing
// path and checks that the sibling fork, the source's frozen chunks (seen
// through a fresh adopter) and a re-export of the sibling are untouched.
func TestForkSiblingIsolation(t *testing.T) {
	donor := forkDonor(t)
	src, err := donor.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	a, b := forkOf(t, donor, src), forkOf(t, donor, src)
	if err := a.HostWrite(0x8000, []byte("a's host write")); err != nil {
		t.Fatal(err)
	}
	if err := a.GuestWrite(0x1000, []byte("a's private write"), true); err != nil {
		t.Fatal(err)
	}
	if err := a.ShareRange(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := a.LaunchUpdateFlip(0x8000, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := a.GuestCopy(0x20000, 0x1000, PageSize, false, false); err != nil {
		t.Fatal(err)
	}
	for ci, c := range src.chunks {
		if c != nil && a.chunks[ci] == c {
			t.Fatalf("chunk %d still shared with the source after writes", ci)
		}
	}

	fresh := forkOf(t, donor, src)
	for _, m := range []*Memory{b, fresh} {
		for _, gpa := range []uint64{0x1000, 0x8000, 0x20000} {
			want, _ := donor.HostRead(gpa, PageSize)
			got, _ := m.HostRead(gpa, PageSize)
			if !bytes.Equal(got, want) || m.IsPrivate(gpa) != donor.IsPrivate(gpa) {
				t.Fatalf("page %#x of an untouched fork changed after its sibling's writes", gpa)
			}
		}
		if err := m.rmp.CheckGuestAccess(0x1000, 3); err != nil {
			t.Fatalf("sibling RMP lost the private page: %v", err)
		}
	}
	if err := src.Verify(); err != nil {
		t.Fatalf("source blob changed: %v", err)
	}
	again, err := b.ExportForkSource()
	if err != nil {
		t.Fatal(err)
	}
	if again.Root() != src.Root() {
		t.Fatal("re-export of the untouched sibling differs from the source")
	}
	if diverged, _ := a.ExportForkSource(); diverged.Root() == src.Root() {
		t.Fatal("re-export of the written fork matches the source")
	}
}

// TestAdoptForkMergesIntoResidentGuest adopts onto a guest that already
// holds pages: chunks it wrote take the per-page merge (its other pages
// survive, the source's win), untouched chunks are shared by pointer,
// and the result matches the dense reference.
func TestAdoptForkMergesIntoResidentGuest(t *testing.T) {
	const size = 3 * chunkPages * PageSize
	type writer interface {
		SetKey([]byte, uint32)
		HostWrite(uint64, []byte) error
		GuestWrite(uint64, []byte, bool) error
		LaunchUpdateFlip(uint64, int) error
	}
	donor, ddonor := New(size), newDense(size)
	for _, g := range []writer{donor, ddonor} {
		g.SetKey(key(5), 2)
		if err := g.HostWrite(0x1000, []byte("private kernel text")); err != nil {
			t.Fatal(err)
		}
		if err := g.LaunchUpdateFlip(0x1000, PageSize); err != nil {
			t.Fatal(err)
		}
		if err := g.HostWrite(chunkPages*PageSize+0x3000, []byte("shared ring")); err != nil {
			t.Fatal(err)
		}
	}
	src, _ := donor.ExportForkSource()
	dsrc, _ := ddonor.ExportForkSource()

	m, d := New(size), newDense(size)
	for _, g := range []writer{m, d} {
		g.SetKey(key(5), 2)
		if err := g.GuestWrite(0x1000, []byte("overwritten by the fork"), false); err != nil {
			t.Fatal(err)
		}
		if err := g.GuestWrite(0x5000, []byte("survives the merge"), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AdoptFork(src); err != nil {
		t.Fatal(err)
	}
	if err := d.AdoptFork(dsrc); err != nil {
		t.Fatal(err)
	}
	if m.chunks[0] == src.chunks[0] {
		t.Fatal("written chunk adopted by pointer: merge path skipped")
	}
	if m.chunks[1] != src.chunks[1] {
		t.Fatal("untouched chunk not shared with the source")
	}
	if m.Stats() != d.Stats() {
		t.Fatalf("Stats %+v, dense reference %+v", m.Stats(), d.Stats())
	}
	for _, gpa := range []uint64{0x1000, 0x5000, chunkPages*PageSize + 0x3000} {
		got, _ := m.HostRead(gpa, PageSize)
		want, _ := d.HostRead(gpa, PageSize)
		if !bytes.Equal(got, want) || m.IsPrivate(gpa) != d.IsPrivate(gpa) {
			t.Fatalf("page %#x differs from the dense reference after merge", gpa)
		}
	}
}

// TestAdoptForkAllocsIndependentOfResidentPages pins AdoptFork's
// allocation count: a source with 64x the resident pages (and the same
// private-run shape) costs exactly as many allocations.
func TestAdoptForkAllocsIndependentOfResidentPages(t *testing.T) {
	const size = 64 << 20
	allocs := func(pages int) float64 {
		donor := New(size)
		donor.SetKey(key(9), 1)
		if err := donor.HostWrite(0, make([]byte, PageSize)); err != nil {
			t.Fatal(err)
		}
		if err := donor.LaunchUpdateFlip(0, PageSize); err != nil {
			t.Fatal(err)
		}
		if err := donor.HostWrite(1<<20, bytes.Repeat([]byte{1}, pages*PageSize)); err != nil {
			t.Fatal(err)
		}
		src, err := donor.ExportForkSource()
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		guests := make([]*Memory, runs+1)
		for i := range guests {
			guests[i] = New(size)
			guests[i].SetKey(key(9), 1)
			guests[i].AttachRMP(rmp.New(), 1)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if err := guests[i].AdoptFork(src); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	small, large := allocs(128), allocs(128*64)
	if small != large {
		t.Fatalf("AdoptFork allocs grow with resident pages: %v (128 pages) vs %v (8192 pages)", small, large)
	}
	if large > 8 {
		t.Fatalf("AdoptFork allocates %v times, want <= 8", large)
	}
}

// TestNewAllocatesPerChunk pins New's footprint to the chunk directory:
// one pointer per 2 MiB, not one per page.
func TestNewAllocatesPerChunk(t *testing.T) {
	const size, calls = 1 << 30, 64
	keep := make([]*Memory, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(size)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if limit := uint64(size/(chunkPages*PageSize))*8 + 1024; perCall > limit {
		t.Fatalf("New(1 GiB) allocates %d bytes, want <= %d (8 bytes per 2 MiB chunk + header)", perCall, limit)
	}
	runtime.KeepAlive(keep)
}

// TestForkSourceBlobsAreFreed exports and drops fork sources: the blobs
// must stay out of the process-wide intern table and be collected.
func TestForkSourceBlobsAreFreed(t *testing.T) {
	interned := func() int64 {
		_, c := telemetry.HostStatsSnapshot()
		return c["artifact.interned"]
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	donor := New(8 << 20)
	donor.SetKey(key(4), 1)
	if err := donor.HostWrite(0, bytes.Repeat([]byte{7}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	count, base := interned(), heap()
	for i := 0; i < 64; i++ {
		src, err := donor.ExportForkSource()
		if err != nil {
			t.Fatal(err)
		}
		forkOf(t, donor, src)
	}
	if got := interned(); got != count {
		t.Fatalf("artifact.interned moved %d -> %d across fork exports", count, got)
	}
	// 64 leaked 1 MiB blobs would hold 64 MiB; allow a few MiB of noise.
	if grown := int64(heap()) - int64(base); grown > 8<<20 {
		t.Fatalf("heap grew %d bytes after 64 dropped fork sources", grown)
	}
}
