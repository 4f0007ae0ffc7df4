package guestmem

// denseMemory is the original dense-page-slice implementation, retained
// as the executable specification the chunked page table is
// differentially tested against (differential_test.go): identical
// bytes, digests, ciphertext, RMP effects, errors and statistics for
// every operation sequence thrown at both. It shares the page record and
// its mutable/readable helpers with the production code, and drops only
// the host counters and accessors the tests do not compare.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/hostwork"
	"github.com/severifast/severifast/internal/rmp"
)

type denseMemory struct {
	size  uint64
	pages []*page
	slab  []page

	key   []byte
	block cipher.Block
	asid  uint32
	rmp   *rmp.Table
}

func newDense(size uint64) *denseMemory {
	size = (size + PageSize - 1) &^ (PageSize - 1)
	return &denseMemory{size: size, pages: make([]*page, size/PageSize)}
}

func (m *denseMemory) SetKey(key []byte, asid uint32) {
	m.key = append([]byte(nil), key...)
	block, err := aes.NewCipher(m.key)
	if err != nil {
		panic(err)
	}
	m.block = block
	m.asid = asid
}

func (m *denseMemory) AttachRMP(t *rmp.Table, asid uint32) {
	m.rmp = t
	m.asid = asid
}

func (m *denseMemory) cipherPage(pn uint64, pt []byte) ([]byte, error) {
	ct := make([]byte, PageSize)
	if err := m.cipherPageInto(ct, pn, pt); err != nil {
		return nil, err
	}
	return ct, nil
}

type denseForkSource struct {
	size  uint64
	pages []ForkPage
	blob  *artifact.Buf
	root  [32]byte
}

func (m *denseMemory) check(gpa uint64, n int) error {
	if n < 0 || gpa+uint64(n) > m.size || gpa+uint64(n) < gpa {
		return fmt.Errorf("%w: [%#x,+%d) of %#x", ErrOutOfRange, gpa, n, m.size)
	}
	return nil
}

func (m *denseMemory) getPage(pn uint64) *page {
	p := m.pages[pn]
	if p == nil {
		if len(m.slab) == 0 {
			m.slab = make([]page, 512)
		}
		p = &m.slab[0]
		m.slab = m.slab[1:]
		m.pages[pn] = p
	}
	return p
}

func (m *denseMemory) HostWrite(gpa uint64, data []byte) error {
	if err := m.check(gpa, len(data)); err != nil {
		return err
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, len(data))
		if err := m.rmp.CheckHostWriteRange(base, span); err != nil {
			return err
		}
	}
	m.write(gpa, data, false)
	return nil
}

func (m *denseMemory) HostWriteAliased(gpa uint64, data []byte) error {
	if err := m.check(gpa, len(data)); err != nil {
		return err
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, len(data))
		if err := m.rmp.CheckHostWriteRange(base, span); err != nil {
			return err
		}
	}
	m.writeAliased(gpa, data, false, artifact.Lookup(data), 0)
	return nil
}

func (m *denseMemory) HostRead(gpa uint64, n int) ([]byte, error) {
	if err := m.check(gpa, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		p := m.pages[pn]
		if p != nil && p.encrypted {
			ct, err := m.cipherPage(pn, p.readable())
			if err != nil {
				return nil, err
			}
			copy(out[done:], ct[off:off+chunk])
		} else {
			copy(out[done:], p.readable()[off:off+chunk])
		}
		done += chunk
	}
	return out, nil
}

func (m *denseMemory) GuestWrite(gpa uint64, data []byte, cbit bool) error {
	if err := m.check(gpa, len(data)); err != nil {
		return err
	}
	if cbit && m.key == nil {
		return ErrNoKey
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, len(data))
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return err
		}
	}
	m.write(gpa, data, cbit)
	return nil
}

func (m *denseMemory) GuestRead(gpa uint64, n int, cbit bool) ([]byte, error) {
	if err := m.check(gpa, n); err != nil {
		return nil, err
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return nil, err
		}
	}
	out := make([]byte, n)
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		p := m.pages[pn]
		src := p.readable()
		encrypted := p != nil && p.encrypted
		if encrypted != cbit {
			// Mapping attribute does not match page state: the engine
			// applies the AES transform in the "wrong" direction and the
			// reader sees ciphertext/garbage.
			ct, err := m.cipherPage(pn, src)
			if err != nil {
				return nil, err
			}
			src = ct
		}
		copy(out[done:], src[off:off+chunk])
		done += chunk
	}
	return out, nil
}

func (m *denseMemory) GuestCopy(dst, src uint64, n int, dstCbit, srcCbit bool) error {
	if err := m.check(src, n); err != nil {
		return err
	}
	if err := m.check(dst, n); err != nil {
		return err
	}
	if src < dst+uint64(n) && dst < src+uint64(n) && n > 0 {
		return fmt.Errorf("guestmem: overlapping copy [%#x,+%d) -> [%#x,+%d)", src, n, dst, n)
	}
	if dstCbit && m.key == nil {
		return ErrNoKey
	}
	if m.rmp != nil {
		if srcCbit {
			base, span := rmpSpan(src, n)
			if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
				return err
			}
		}
		if dstCbit {
			base, span := rmpSpan(dst, n)
			if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
				return err
			}
		}
	}
	// Fast path: page-aligned both sides and every source page's state
	// matches the mapping (so the copy moves plain text) — alias full
	// pages copy-on-write and fall back only for the tail.
	if dst%PageSize == 0 && src%PageSize == 0 {
		fullPages := uint64(n) / PageSize
		aliasable := true
		for i := uint64(0); i < fullPages; i++ {
			sp := m.pages[src/PageSize+i]
			if (sp != nil && sp.encrypted) != srcCbit {
				aliasable = false
				break
			}
		}
		if aliasable {
			for i := uint64(0); i < fullPages; i++ {
				sp := m.pages[src/PageSize+i]
				dp := m.getPage(dst/PageSize + i)
				if sp == nil || sp.data == nil {
					dp.data = nil
					dp.cow = false
					dp.art, dp.artOff = nil, 0
				} else {
					sp.cow = true
					dp.data = sp.data
					dp.cow = true
					dp.art, dp.artOff = sp.art, sp.artOff
				}
				dp.encrypted = dstCbit
			}
			tail := n - int(fullPages*PageSize)
			if tail == 0 {
				return nil
			}
			data, err := m.GuestRead(src+fullPages*PageSize, tail, srcCbit)
			if err != nil {
				return err
			}
			m.write(dst+fullPages*PageSize, data, dstCbit)
			return nil
		}
	}
	// General path: read then write.
	data, err := m.GuestRead(src, n, srcCbit)
	if err != nil {
		return err
	}
	m.write(dst, data, dstCbit)
	return nil
}

func (m *denseMemory) LaunchUpdate(gpa uint64, n int) ([]byte, error) {
	if err := m.check(gpa, n); err != nil {
		return nil, err
	}
	if m.key == nil {
		return nil, ErrNoKey
	}
	pt := make([]byte, n)
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		p := m.getPage(pn)
		copy(pt[done:], p.readable()[off:off+chunk])
		p.encrypted = true
		done += chunk
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		m.rmp.AssignValidatedRange(base, span, m.asid)
	}
	return pt, nil
}

func (m *denseMemory) write(gpa uint64, data []byte, encrypted bool) {
	for done := 0; done < len(data); {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > len(data)-done {
			chunk = len(data) - done
		}
		p := m.getPage(pn)
		copy(p.mutable()[off:], data[done:done+chunk])
		p.encrypted = encrypted
		done += chunk
	}
}

func (m *denseMemory) writeAliased(gpa uint64, data []byte, encrypted bool, art *artifact.Buf, artBase int) {
	done := 0
	for done < len(data) {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > len(data)-done {
			chunk = len(data) - done
		}
		p := m.getPage(pn)
		if off == 0 && chunk == PageSize {
			p.data = data[done : done+PageSize : done+PageSize]
			p.cow = true
			p.art, p.artOff = art, artBase+done
		} else if pa := artBase + done - off; p.data == nil && art != nil &&
			pa >= 0 && pa+PageSize <= art.Len() &&
			allZero(art.Bytes()[pa:pa+off]) &&
			allZero(art.Bytes()[pa+off+chunk:pa+PageSize]) {
			// Sub-page write into a fresh (all-zero) page, with the artifact
			// holding zeros around the written bytes at the same intra-page
			// offsets (staging blobs place regions GPA-congruent and pad to
			// page boundaries for exactly this): the full page content
			// equals the artifact's page, so alias it with provenance
			// instead of copying.
			p.data = art.Bytes()[pa : pa+PageSize : pa+PageSize]
			p.cow = true
			p.art, p.artOff = art, pa
		} else {
			copy(p.mutable()[off:], data[done:done+chunk])
		}
		p.encrypted = encrypted
		done += chunk
	}
}

func (m *denseMemory) cipherPageInto(ct []byte, pn uint64, pt []byte) error {
	if m.key == nil {
		return ErrNoKey
	}
	var iv [16]byte
	binary.LittleEndian.PutUint32(iv[0:], m.asid)
	binary.LittleEndian.PutUint64(iv[8:], pn) // physical-address tweak
	cipher.NewCTR(m.block, iv[:]).XORKeyStream(ct[:PageSize], pt)
	return nil
}

func (m *denseMemory) Stats() Stats {
	var s Stats
	for _, p := range m.pages {
		if p == nil {
			continue
		}
		if p.data != nil || p.encrypted {
			s.ResidentPages++
		}
		if p.cow {
			s.AliasedPages++
		}
		if p.encrypted {
			s.PrivatePages++
		}
	}
	return s
}

func (m *denseMemory) GuestWriteAliased(gpa uint64, data []byte, cbit bool) error {
	if err := m.check(gpa, len(data)); err != nil {
		return err
	}
	if cbit && m.key == nil {
		return ErrNoKey
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, len(data))
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return err
		}
	}
	m.writeAliased(gpa, data, cbit, artifact.Lookup(data), 0)
	return nil
}

func (m *denseMemory) HostWriteArtifact(gpa uint64, art *artifact.Buf, off, n int) error {
	data := art.Bytes()[off : off+n]
	if err := m.check(gpa, n); err != nil {
		return err
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckHostWriteRange(base, span); err != nil {
			return err
		}
	}
	m.writeAliased(gpa, data, false, art, off)
	return nil
}

func (m *denseMemory) GuestWriteArtifact(gpa uint64, art *artifact.Buf, off, n int, cbit bool) error {
	data := art.Bytes()[off : off+n]
	if err := m.check(gpa, n); err != nil {
		return err
	}
	if cbit && m.key == nil {
		return ErrNoKey
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return err
		}
	}
	m.writeAliased(gpa, data, cbit, art, off)
	return nil
}

func (m *denseMemory) Resident(gpa uint64) bool {
	if gpa/PageSize >= uint64(len(m.pages)) {
		return false
	}
	p := m.pages[gpa/PageSize]
	return p != nil && (p.data != nil || p.encrypted)
}

func (m *denseMemory) IsPrivate(gpa uint64) bool {
	if gpa/PageSize >= uint64(len(m.pages)) {
		return false
	}
	p := m.pages[gpa/PageSize]
	return p != nil && p.encrypted
}

func (m *denseMemory) HostRestoreCiphertext(gpa uint64, ct []byte) error {
	if gpa%PageSize != 0 || len(ct) != PageSize {
		return fmt.Errorf("guestmem: ciphertext restore must be page-granular")
	}
	if err := m.check(gpa, len(ct)); err != nil {
		return err
	}
	if m.key == nil {
		return ErrNoKey
	}
	pn := gpa / PageSize
	pt, err := m.cipherPage(pn, ct) // CTR transform is its own inverse
	if err != nil {
		return err
	}
	p := m.getPage(pn)
	p.data = pt
	p.cow = false
	p.art, p.artOff = nil, 0
	p.encrypted = true
	if m.rmp != nil {
		m.rmp.AssignValidated(gpa, m.asid)
	}
	return nil
}

func (m *denseMemory) ShareRange(gpa uint64, n int) error {
	if err := m.check(gpa, n); err != nil {
		return err
	}
	for off := gpa &^ (PageSize - 1); off < gpa+uint64(n); off += PageSize {
		p := m.getPage(off / PageSize)
		p.encrypted = false
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		m.rmp.ReclaimRange(base, span)
	}
	return nil
}

func (m *denseMemory) rangeArtifact(gpa uint64, n int) (*artifact.Buf, int) {
	if n <= 0 {
		return nil, 0
	}
	first := gpa / PageSize
	last := (gpa + uint64(n) - 1) / PageSize
	var art *artifact.Buf
	base := 0
	for pn := first; pn <= last; pn++ {
		p := m.pages[pn]
		if p == nil || p.art == nil {
			continue
		}
		cand := p.artOff - int(pn-first)*PageSize + int(gpa%PageSize)
		if art == nil {
			art, base = p.art, cand
		} else if p.art != art || cand != base {
			return nil, 0
		}
	}
	if art == nil || base < 0 || base+n > art.Len() {
		return nil, 0
	}
	// Verify the pages without provenance really hold the artifact's
	// bytes. This covers copied partial-page tails (a few KiB memcmp,
	// cheap next to the MiB-scale hash it saves) and rejects anything
	// that diverged.
	src := art.Bytes()[base : base+n]
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		p := m.pages[pn]
		if p == nil || p.art == nil {
			if !bytesEqual(p.readable()[off:off+chunk], src[done:done+chunk]) {
				return nil, 0
			}
		}
		done += chunk
	}
	return art, base
}

func (m *denseMemory) PlainRangeDigest(gpa uint64, n int) ([32]byte, error) {
	var sum [32]byte
	if err := m.check(gpa, n); err != nil {
		return sum, err
	}
	if art, base := m.rangeArtifact(gpa, n); art != nil {
		return art.RangeDigest(base, n), nil
	}
	h := sha256.New()
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		h.Write(m.pages[pn].readable()[off : off+chunk])
		done += chunk
	}
	h.Sum(sum[:0])
	return sum, nil
}

func (m *denseMemory) HashRange(gpa uint64, n int, cbit bool) ([32]byte, error) {
	var sum [32]byte
	if err := m.check(gpa, n); err != nil {
		return sum, err
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return sum, err
		}
	}
	allMatch := true
	for off := gpa &^ (PageSize - 1); off < gpa+uint64(n); off += PageSize {
		p := m.pages[off/PageSize]
		if (p != nil && p.encrypted) != cbit {
			allMatch = false
			break
		}
	}
	if allMatch {
		return m.PlainRangeDigest(gpa, n)
	}
	scratch := pagePool.Get().(*[]byte)
	defer pagePool.Put(scratch)
	h := sha256.New()
	for done := 0; done < n; {
		pn := (gpa + uint64(done)) / PageSize
		off := int((gpa + uint64(done)) % PageSize)
		chunk := PageSize - off
		if chunk > n-done {
			chunk = n - done
		}
		p := m.pages[pn]
		src := p.readable()
		if (p != nil && p.encrypted) != cbit {
			if err := m.cipherPageInto(*scratch, pn, src); err != nil {
				return sum, err
			}
			src = *scratch
		}
		h.Write(src[off : off+chunk])
		done += chunk
	}
	h.Sum(sum[:0])
	return sum, nil
}

func (m *denseMemory) ArtifactRange(gpa uint64, n int, cbit bool) (*artifact.Buf, int, error) {
	if err := m.check(gpa, n); err != nil {
		return nil, 0, err
	}
	if cbit && m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		if err := m.rmp.CheckGuestAccessRange(base, span, m.asid); err != nil {
			return nil, 0, err
		}
	}
	for off := gpa &^ (PageSize - 1); off < gpa+uint64(n); off += PageSize {
		p := m.pages[off/PageSize]
		if (p != nil && p.encrypted) != cbit {
			return nil, 0, nil
		}
	}
	art, base := m.rangeArtifact(gpa, n)
	if art == nil {
		return nil, 0, nil
	}
	return art, base, nil
}

func (m *denseMemory) LaunchUpdateFlip(gpa uint64, n int) error {
	if err := m.check(gpa, n); err != nil {
		return err
	}
	if m.key == nil {
		return ErrNoKey
	}
	for off := gpa &^ (PageSize - 1); off < gpa+uint64(n); off += PageSize {
		p := m.getPage(off / PageSize)
		p.encrypted = true
	}
	if m.rmp != nil {
		base, span := rmpSpan(gpa, n)
		m.rmp.AssignValidatedRange(base, span, m.asid)
	}
	return nil
}

func (m *denseMemory) ExportPages() ([]PageExport, error) {
	var pns []uint64
	anyPrivate := false
	for pn, p := range m.pages { // dense, so pns comes out sorted
		if p != nil && (p.data != nil || p.encrypted) {
			pns = append(pns, uint64(pn))
			anyPrivate = anyPrivate || p.encrypted
		}
	}
	if anyPrivate && m.key == nil {
		return nil, ErrNoKey
	}
	out := make([]PageExport, len(pns))
	hostwork.Do(len(pns), func(i int) {
		pn := pns[i]
		p := m.pages[pn]
		data := make([]byte, PageSize)
		if p.encrypted {
			m.cipherPageInto(data, pn, p.readable())
		} else {
			copy(data, p.readable())
		}
		out[i] = PageExport{PN: pn, Data: data, Private: p.encrypted}
	})
	return out, nil
}

func (m *denseMemory) ExportForkSource() (*denseForkSource, error) {
	var pns []uint64
	for pn, p := range m.pages { // dense, so pns comes out sorted
		if p != nil && (p.data != nil || p.encrypted) {
			pns = append(pns, uint64(pn))
		}
	}
	blob := make([]byte, len(pns)*PageSize)
	pages := make([]ForkPage, len(pns))
	for i, pn := range pns {
		p := m.pages[pn]
		copy(blob[i*PageSize:], p.readable())
		pages[i] = ForkPage{PN: pn, Off: i * PageSize, Private: p.encrypted}
	}
	buf := artifact.Of(blob)
	src := &denseForkSource{size: m.size, pages: pages, blob: buf}
	if buf != nil {
		src.root = buf.Digest()
	}
	return src, nil
}

func (s *denseForkSource) Pages() []ForkPage { return s.pages }

func (s *denseForkSource) Root() [32]byte { return s.root }

func (s *denseForkSource) Verify() error {
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

func (m *denseMemory) AdoptFork(src *denseForkSource) error {
	if src.size != m.size {
		return fmt.Errorf("guestmem: fork source is %d bytes, guest is %d: %w", src.size, m.size, ErrSize)
	}
	if err := src.Verify(); err != nil {
		return err
	}
	anyPrivate := false
	for _, fp := range src.pages {
		if fp.Private {
			anyPrivate = true
			break
		}
	}
	if anyPrivate && m.key == nil {
		return ErrNoKey
	}
	// The original dereferenced a nil blob when the source had no
	// resident pages; an empty source adopts nothing.
	var blob []byte
	if src.blob != nil {
		blob = src.blob.Bytes()
	}
	// Private pages land assigned+validated; contiguous runs batch into
	// one RMP splice each instead of a per-page table write.
	runLo, runHi := uint64(0), uint64(0) // [runLo, runHi) pending private pns
	flush := func() {
		if m.rmp != nil && runHi > runLo {
			m.rmp.AssignValidatedRange(runLo*PageSize, int(runHi-runLo)*PageSize, m.asid)
		}
	}
	for _, fp := range src.pages {
		p := m.getPage(fp.PN)
		p.data = blob[fp.Off : fp.Off+PageSize : fp.Off+PageSize]
		p.cow = true
		p.art, p.artOff = src.blob, fp.Off
		p.encrypted = fp.Private
		if fp.Private {
			if fp.PN == runHi && runHi > runLo {
				runHi++
			} else {
				flush()
				runLo, runHi = fp.PN, fp.PN+1
			}
		}
	}
	flush()
	return nil
}
