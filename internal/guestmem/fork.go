package guestmem

// Snapshot-fork support: a ForkSource is one guest's resident plain
// text, frozen into a single artifact blob plus a read-only chunk table
// whose page records alias that blob copy-on-write. Where
// snapshot.Restore replays ciphertext page by page (O(image) AES work
// per warm boot), AdoptFork copies one chunk pointer per 2 MiB of guest
// memory, splices the source's private page runs into the RMP, and
// re-checks the O(1) root digest — O(chunks + private runs), however
// many pages are resident. The forked guest shares the donor's key and
// ASID (installed by psp.LaunchStartFork), so the host-visible
// ciphertext of every aliased private page is bit-identical to what a
// copy restore would have produced. A write to a shared chunk first
// clones it (writable: one chunk copy), then breaks the page alias in
// mutable() before the bytes can diverge, so no write reaches the
// source, its blob, or a sibling fork.
//
// Soundness: the root digest is taken over the full plain-text blob at
// capture time. AdoptFork re-checks it before aliasing a single page;
// artifact.Corrupt (the chaos engine's tamper model) invalidates the
// blob's digest memo, so a tampered blob re-hashes honestly and the
// fork is refused with ErrForkTampered. A fork can therefore never go
// live with pages that differ from the measured parent.

import (
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/artifact"
)

// ErrForkTampered reports a fork source whose blob no longer matches
// the root digest recorded at capture.
var ErrForkTampered = errors.New("guestmem: fork source tampered since capture")

// ForkPage locates one resident page inside a ForkSource blob.
type ForkPage struct {
	PN      uint64 // guest page number
	Off     int    // byte offset of the page's plain text inside the blob
	Private bool   // page was in the encrypted state at capture
}

// ForkSource is a frozen copy of a guest's resident plain text,
// fork-adoptable by any guest of the same size that shares the donor's
// encryption key and ASID.
type ForkSource struct {
	size  uint64
	pages []ForkPage
	blob  *artifact.Buf
	root  [32]byte

	// chunks is the frozen page table every adopter shares: one entry
	// per chunk of the donor, nil where the donor had no resident page,
	// each resident record aliasing blob with provenance.
	chunks []*pageChunk
	// private lists the maximal runs of private pages, spliced into an
	// adopter's RMP as assigned+validated ranges.
	private []pageRun
}

// pageRun is the half-open page-number range [lo, hi).
type pageRun struct{ lo, hi uint64 }

// ExportForkSource freezes the guest's resident pages — plain text, in
// page-number order — into one blob, records its digest as the fork
// root, and builds the frozen chunk table forks adopt. The donor's own
// page table is left untouched, and it must not be mutated afterwards
// (fleet keeps donors parked for exactly this reason).
//
// The blob is wrapped with artifact.Of, not interned: its handle
// travels explicitly (ForkSource.blob, page provenance), so it is freed
// with the last ForkSource and fork guest that reference it.
func (m *Memory) ExportForkSource() (*ForkSource, error) {
	var pages []ForkPage
	m.eachResident(func(pn uint64, p *page) {
		pages = append(pages, ForkPage{PN: pn, Off: len(pages) * PageSize, Private: p.encrypted})
	})
	blob := make([]byte, len(pages)*PageSize)
	for _, fp := range pages {
		copy(blob[fp.Off:], m.lookup(fp.PN).readable())
	}
	buf := artifact.Of(blob)
	src := &ForkSource{size: m.size, pages: pages, blob: buf, chunks: make([]*pageChunk, len(m.chunks))}
	if buf != nil {
		src.root = buf.Digest()
	}
	for _, fp := range pages {
		c := src.chunks[fp.PN>>chunkShift]
		if c == nil {
			c = &pageChunk{frozen: true}
			src.chunks[fp.PN>>chunkShift] = c
		}
		c.pages[fp.PN&(chunkPages-1)] = page{
			data:      blob[fp.Off : fp.Off+PageSize : fp.Off+PageSize],
			cow:       true,
			encrypted: fp.Private,
			art:       buf,
			artOff:    fp.Off,
		}
		if !fp.Private {
			continue
		}
		if n := len(src.private); n > 0 && src.private[n-1].hi == fp.PN {
			src.private[n-1].hi++
		} else {
			src.private = append(src.private, pageRun{fp.PN, fp.PN + 1})
		}
	}
	m.recorder().CounterAdd("guestmem.fork.exported", 1)
	m.recorder().CounterAdd("guestmem.fork.exported_bytes", int64(len(blob)))
	return src, nil
}

// Pages returns the source's page table (read-only).
func (s *ForkSource) Pages() []ForkPage { return s.pages }

// Size returns the donor guest's memory size.
func (s *ForkSource) Size() uint64 { return s.size }

// Root returns the digest of the plain-text blob at capture time.
func (s *ForkSource) Root() [32]byte { return s.root }

// Blob exposes the backing artifact. The chaos engine corrupts it to
// prove forks of a tampered parent are refused.
func (s *ForkSource) Blob() *artifact.Buf { return s.blob }

// Verify re-hashes the blob (O(1) when the digest memo is intact) and
// reports whether it still matches the fork root.
func (s *ForkSource) Verify() error {
	if s.blob == nil {
		if len(s.pages) != 0 {
			return fmt.Errorf("%w: %d pages with no backing blob", ErrForkTampered, len(s.pages))
		}
		return nil
	}
	if s.blob.Digest() != s.root {
		return ErrForkTampered
	}
	return nil
}

// AdoptFork populates this guest from a fork source: every source page
// is aliased copy-on-write with artifact provenance, private pages keep
// their state (assigned+validated under SNP). The caller must have
// installed the donor's key and ASID first (psp.LaunchStartFork does);
// the root digest is verified before any page is touched.
//
// A chunk this guest never wrote adopts the source's frozen chunk by
// pointer. A chunk that already holds pages takes the per-page merge:
// the source's resident records overwrite the guest's, and the guest's
// other pages stay.
func (m *Memory) AdoptFork(src *ForkSource) error {
	if src.size != m.size {
		return fmt.Errorf("guestmem: fork source is %d bytes, guest is %d: %w", src.size, m.size, ErrSize)
	}
	if err := src.Verify(); err != nil {
		return err
	}
	if len(src.private) > 0 && m.key == nil {
		return ErrNoKey
	}
	for ci, sc := range src.chunks {
		switch {
		case sc == nil:
		case m.chunks[ci] == nil:
			m.chunks[ci] = sc
		default:
			dc := m.writable(uint64(ci))
			for i := range sc.pages {
				if sc.pages[i].data != nil {
					dc.pages[i] = sc.pages[i]
				}
			}
		}
	}
	if m.rmp != nil {
		for _, r := range src.private {
			m.rmp.AssignValidatedRange(r.lo*PageSize, int(r.hi-r.lo)*PageSize, m.asid)
		}
	}
	m.recorder().CounterAdd("guestmem.fork.adopted", 1)
	m.recorder().CounterAdd("guestmem.fork.aliased_pages", int64(len(src.pages)))
	return nil
}
