package guestmem

// Differential test of the chunked page table against the dense
// reference in dense_test.go: seeded random sequences of every mutating
// operation (host/guest writes, aliased and artifact writes, GuestCopy,
// launch updates and flips, ShareRange, ciphertext restore, fork export
// and adoption — fresh and merging) run against both, and every
// observer must agree on every result and error.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/rmp"
)

// diffSize spans four full chunks plus a partial fifth, so ranges cross
// chunk boundaries and the last chunk is shorter than chunkPages.
const diffSize = 4*chunkPages*PageSize + 3*PageSize

type diffGuest struct {
	c *Memory
	d *denseMemory
}

type diffSource struct {
	c    *ForkSource
	d    *denseForkSource
	key  []byte
	asid uint32
}

type diffHarness struct {
	t      *testing.T
	rng    *rand.Rand
	guests []diffGuest
	srcs   []diffSource
	arts   []*artifact.Buf
	// blobs maps each chunked fork blob to its dense counterpart, so
	// ArtifactRange results naming fork blobs can be compared.
	blobs map[*artifact.Buf]*artifact.Buf
	step  int
}

func newDiffHarness(t *testing.T, seed int64) *diffHarness {
	h := &diffHarness{t: t, rng: rand.New(rand.NewSource(seed)), blobs: map[*artifact.Buf]*artifact.Buf{}}
	for i, n := range []int{3 * PageSize, 5*PageSize + 777, chunkPages*PageSize + 2*PageSize, 100} {
		_, art := internedBuf(seed*10+int64(i), n)
		h.arts = append(h.arts, art)
	}
	// A staging-style blob: data stretches inside zero padding, so
	// GPA-congruent sub-page writes take writeAliased's alias path.
	staging := make([]byte, 4*PageSize)
	for i := 0; i < 4; i++ {
		lo := i*PageSize + h.rng.Intn(PageSize/2)
		h.rng.Read(staging[lo : lo+h.rng.Intn(PageSize/2)])
	}
	h.arts = append(h.arts, artifact.Intern(staging))
	h.guests = append(h.guests, h.newGuest(h.rng.Intn(4) != 0, nil, 0))
	return h
}

// newGuest creates a guest pair, keyed (with key/asid, or random ones
// when key is nil) or keyless, with an RMP table attached half the time.
func (h *diffHarness) newGuest(keyed bool, k []byte, asid uint32) diffGuest {
	g := diffGuest{c: New(diffSize), d: newDense(diffSize)}
	if k == nil {
		k, asid = key(byte(h.rng.Intn(256))), uint32(1+h.rng.Intn(8))
	}
	if h.rng.Intn(2) == 0 {
		g.c.AttachRMP(rmp.New(), asid)
		g.d.AttachRMP(rmp.New(), asid)
	}
	if keyed {
		g.c.SetKey(k, asid)
		g.d.SetKey(k, asid)
	}
	return g
}

func (h *diffHarness) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d: %s", h.step, fmt.Sprintf(format, args...))
}

func (h *diffHarness) sameErr(op string, ec, ed error) {
	h.t.Helper()
	if (ec == nil) != (ed == nil) || (ec != nil && ec.Error() != ed.Error()) {
		h.fail("%s: chunked err %v, dense err %v", op, ec, ed)
	}
}

// gpa draws an address: page-aligned, arbitrary, or near a chunk
// boundary, occasionally past the end of memory.
func (h *diffHarness) gpa() uint64 {
	switch r := h.rng.Intn(10); {
	case r < 4:
		return uint64(h.rng.Intn(diffSize/PageSize)) * PageSize
	case r < 7:
		return uint64(h.rng.Intn(diffSize))
	case r < 9:
		b := uint64(1+h.rng.Intn(4)) * chunkPages * PageSize
		return b - 2*PageSize + uint64(h.rng.Intn(4*PageSize))
	default:
		return diffSize - uint64(h.rng.Intn(3*PageSize))
	}
}

// length draws a byte count: small, whole pages, or pages plus a tail.
func (h *diffHarness) length() int {
	switch h.rng.Intn(4) {
	case 0:
		return h.rng.Intn(200)
	case 1:
		return (1 + h.rng.Intn(6)) * PageSize
	case 2:
		return h.rng.Intn(4)*PageSize + h.rng.Intn(PageSize)
	default:
		return h.rng.Intn(2 * PageSize)
	}
}

func (h *diffHarness) bytes(n int) []byte {
	b := make([]byte, n)
	h.rng.Read(b)
	return b
}

// mutate applies one random operation to both implementations of a
// random guest and compares what the operation itself returns.
func (h *diffHarness) mutate() {
	g := h.guests[h.rng.Intn(len(h.guests))]
	cbit := h.rng.Intn(2) == 0
	switch op := h.rng.Intn(15); op {
	case 0:
		gpa, data := h.gpa(), h.bytes(h.length())
		h.sameErr("HostWrite", g.c.HostWrite(gpa, data), g.d.HostWrite(gpa, data))
	case 1:
		gpa, data := h.gpa(), h.bytes(h.length())
		h.sameErr("GuestWrite", g.c.GuestWrite(gpa, data, cbit), g.d.GuestWrite(gpa, data, cbit))
	case 2, 3:
		// Aliased writes of a whole interned buffer (provenance via
		// Lookup) or of a plain slice (no provenance).
		art := h.arts[h.rng.Intn(len(h.arts))]
		data := art.Bytes()
		if h.rng.Intn(3) == 0 {
			data = data[:len(data)/2]
		}
		gpa := h.gpa()
		if op == 2 {
			h.sameErr("HostWriteAliased", g.c.HostWriteAliased(gpa, data), g.d.HostWriteAliased(gpa, data))
		} else {
			h.sameErr("GuestWriteAliased", g.c.GuestWriteAliased(gpa, data, cbit), g.d.GuestWriteAliased(gpa, data, cbit))
		}
	case 4, 5:
		art := h.arts[h.rng.Intn(len(h.arts))]
		off := h.rng.Intn(art.Len())
		if h.rng.Intn(2) == 0 {
			off &^= PageSize - 1
		}
		n := h.rng.Intn(art.Len() - off + 1)
		gpa := h.gpa()
		if h.rng.Intn(2) == 0 {
			gpa = gpa&^(PageSize-1) + uint64(off%PageSize) // GPA-congruent staging
		}
		if op == 4 {
			h.sameErr("HostWriteArtifact", g.c.HostWriteArtifact(gpa, art, off, n), g.d.HostWriteArtifact(gpa, art, off, n))
		} else {
			h.sameErr("GuestWriteArtifact", g.c.GuestWriteArtifact(gpa, art, off, n, cbit), g.d.GuestWriteArtifact(gpa, art, off, n, cbit))
		}
	case 6:
		// GuestCopy: page-aligned (the aliasing path) or arbitrary.
		dst, src, n := h.gpa(), h.gpa(), h.length()
		if h.rng.Intn(2) == 0 {
			dst, src = dst&^(PageSize-1), src&^(PageSize-1)
			if h.rng.Intn(2) == 0 {
				n &^= PageSize - 1
			}
		}
		scbit := h.rng.Intn(2) == 0
		h.sameErr("GuestCopy", g.c.GuestCopy(dst, src, n, cbit, scbit), g.d.GuestCopy(dst, src, n, cbit, scbit))
	case 7:
		gpa, n := h.gpa(), h.length()
		pc, ec := g.c.LaunchUpdate(gpa, n)
		pd, ed := g.d.LaunchUpdate(gpa, n)
		h.sameErr("LaunchUpdate", ec, ed)
		if !bytes.Equal(pc, pd) {
			h.fail("LaunchUpdate(%#x, %d) plain text differs", gpa, n)
		}
	case 8:
		gpa, n := h.gpa(), h.length()
		h.sameErr("LaunchUpdateFlip", g.c.LaunchUpdateFlip(gpa, n), g.d.LaunchUpdateFlip(gpa, n))
	case 9:
		gpa, n := h.gpa(), h.length()
		h.sameErr("ShareRange", g.c.ShareRange(gpa, n), g.d.ShareRange(gpa, n))
	case 10:
		gpa, ct := h.gpa()&^(PageSize-1), h.bytes(PageSize)
		if h.rng.Intn(8) == 0 {
			gpa++
		}
		h.sameErr("HostRestoreCiphertext", g.c.HostRestoreCiphertext(gpa, ct), g.d.HostRestoreCiphertext(gpa, ct))
	case 11:
		h.export(g)
	case 12, 13:
		if len(h.srcs) == 0 {
			return
		}
		s := h.srcs[h.rng.Intn(len(h.srcs))]
		if op == 12 && len(h.guests) < 6 {
			// Fresh adopter sharing the donor's key and ASID: the
			// pointer-adoption path.
			g = h.newGuest(s.key != nil, s.key, s.asid)
			h.guests = append(h.guests, g)
		}
		// Otherwise adopt into g, which may already hold pages: the
		// per-page merge path.
		h.sameErr("AdoptFork", g.c.AdoptFork(s.c), g.d.AdoptFork(s.d))
	case 14:
		if !g.c.HasKey() {
			k := key(byte(h.rng.Intn(256)))
			g.c.SetKey(k, g.c.asid)
			g.d.SetKey(k, g.d.asid)
		}
	}
}

// export takes a fork source from both implementations of g and checks
// they describe the same pages and root.
func (h *diffHarness) export(g diffGuest) {
	sc, ec := g.c.ExportForkSource()
	sd, ed := g.d.ExportForkSource()
	h.sameErr("ExportForkSource", ec, ed)
	if ec != nil {
		return
	}
	if sc.Root() != sd.Root() || len(sc.Pages()) != len(sd.Pages()) {
		h.fail("fork sources differ: %d vs %d pages", len(sc.Pages()), len(sd.Pages()))
	}
	for i, p := range sc.Pages() {
		if p != sd.Pages()[i] {
			h.fail("fork page %d: %+v vs %+v", i, p, sd.Pages()[i])
		}
	}
	if sc.blob != nil {
		h.blobs[sc.blob] = sd.blob
	}
	h.srcs = append(h.srcs, diffSource{c: sc, d: sd, key: g.c.Key(), asid: g.c.asid})
}

// observe compares every read-side API over a random range of every
// guest; full compares page-level statistics and exports as well.
func (h *diffHarness) observe(full bool) {
	for gi, g := range h.guests {
		gpa, n, cbit := h.gpa(), h.length(), h.rng.Intn(2) == 0
		rc, ec := g.c.GuestRead(gpa, n, cbit)
		rd, ed := g.d.GuestRead(gpa, n, cbit)
		h.sameErr("GuestRead", ec, ed)
		if !bytes.Equal(rc, rd) {
			h.fail("guest %d GuestRead(%#x, %d, %v) differs", gi, gpa, n, cbit)
		}
		rc, ec = g.c.HostRead(gpa, n)
		rd, ed = g.d.HostRead(gpa, n)
		h.sameErr("HostRead", ec, ed)
		if !bytes.Equal(rc, rd) {
			h.fail("guest %d HostRead(%#x, %d) differs", gi, gpa, n)
		}
		hc, ec := g.c.HashRange(gpa, n, cbit)
		hd, ed := g.d.HashRange(gpa, n, cbit)
		h.sameErr("HashRange", ec, ed)
		if hc != hd {
			h.fail("guest %d HashRange(%#x, %d, %v) differs", gi, gpa, n, cbit)
		}
		hc, ec = g.c.PlainRangeDigest(gpa, n)
		hd, ed = g.d.PlainRangeDigest(gpa, n)
		h.sameErr("PlainRangeDigest", ec, ed)
		if hc != hd {
			h.fail("guest %d PlainRangeDigest(%#x, %d) differs", gi, gpa, n)
		}
		ac, bc, ec := g.c.ArtifactRange(gpa, n, cbit)
		ad, bd, ed := g.d.ArtifactRange(gpa, n, cbit)
		h.sameErr("ArtifactRange", ec, ed)
		if mapped, ok := h.blobs[ac]; ok {
			ac = mapped
		}
		if ac != ad || bc != bd {
			h.fail("guest %d ArtifactRange(%#x, %d, %v) = (%p, %d), dense (%p, %d)", gi, gpa, n, cbit, ac, bc, ad, bd)
		}
		if g.c.Resident(gpa) != g.d.Resident(gpa) || g.c.IsPrivate(gpa) != g.d.IsPrivate(gpa) {
			h.fail("guest %d Resident/IsPrivate(%#x) differ", gi, gpa)
		}
		if !full {
			continue
		}
		if sc, sd := g.c.Stats(), g.d.Stats(); sc != sd {
			h.fail("guest %d Stats %+v, dense %+v", gi, sc, sd)
		}
		xc, ec := g.c.ExportPages()
		xd, ed := g.d.ExportPages()
		h.sameErr("ExportPages", ec, ed)
		if len(xc) != len(xd) {
			h.fail("guest %d ExportPages: %d vs %d pages", gi, len(xc), len(xd))
		}
		for i := range xc {
			if xc[i].PN != xd[i].PN || xc[i].Private != xd[i].Private || !bytes.Equal(xc[i].Data, xd[i].Data) {
				h.fail("guest %d ExportPages[%d] (pn %#x) differs", gi, i, xc[i].PN)
			}
		}
	}
}

func TestChunkedMatchesDenseReference(t *testing.T) {
	seeds, steps := 24, 300
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		h := newDiffHarness(t, seed)
		for h.step = 0; h.step < steps; h.step++ {
			h.mutate()
			h.observe(h.step%25 == 24)
		}
		h.observe(true)
	}
}
