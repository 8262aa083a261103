package mapdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Segment file format v1 — one published generation as a single file.
// The file carries the map's data only — who observed it, its links, its
// owner table — and opening one ends in the same finishIndexes as Compile
// and Apply: every lookup index is derived from the decoded data, never
// read from the file, so an image cannot carry an index that disagrees
// with its links.
//
// Layout, all little-endian, section payloads 8-byte aligned:
//
//	magic "BDRS" | version u32 | gen u64 | hostAS u32 | flags u32
//	nsect u32
//	nsect × { id u32, off u64, len u64, crc u32 }
//	tableCRC u32   (covers every byte above)
//	…padded section payloads, each covered by its table CRC…
//
// flags is written 0 and ignored on read (bit 0 once marked a partial
// generation). Strings live once in a shared string table and are
// referenced as (offset, length) pairs; link and owner records refer to
// their attributing heuristic through a small deduplicated name list.
const (
	segMagic   = "BDRS"
	segVersion = 1

	segSuffix    = ".seg"
	segTmpSuffix = ".tmp"
)

// Section ids. The table is id-addressed, so readers tolerate unknown
// sections (forward compatibility) and reject missing required ones.
// Ids 3 and 8–12 are retired: 3 listed the vantage points a partial
// generation was published without, and 8–12 persisted the lookup indexes
// that are now derived on open. They are never written, never read and
// never reused; a file that carries them opens with them ignored.
const (
	secStrtab     = 1
	secVPs        = 2
	secHeurs      = 4
	secLinks      = 5
	secOwners     = 6
	secOwnerAddrs = 7
)

const (
	segHeaderLen   = 28 // magic + version + gen + hostAS + flags + nsect
	segTableEntLen = 24 // id + off + len + crc
	linkRecLen     = 16 // near + far + farAS + heurIdx
	ownerRecLen    = 16 // as + heurIdx + hopDist + flags
)

var segCRC = crc32.MakeTable(crc32.Castagnoli)

func segmentPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("gen-%08d%s", gen, segSuffix))
}

// ---------------------------------------------------------------------------
// Writing

// segWriter accumulates the shared string table while sections encode.
type segWriter struct {
	strtab []byte
	idx    map[string][2]uint32
}

func (w *segWriter) str(s string) (off, ln uint32) {
	if at, ok := w.idx[s]; ok {
		return at[0], at[1]
	}
	off = uint32(len(w.strtab))
	ln = uint32(len(s))
	w.strtab = append(w.strtab, s...)
	w.idx[s] = [2]uint32{off, ln}
	return off, ln
}

func (w *segWriter) strList(names []string) []byte {
	out := make([]byte, 4+8*len(names))
	binary.LittleEndian.PutUint32(out, uint32(len(names)))
	for i, s := range names {
		off, ln := w.str(s)
		binary.LittleEndian.PutUint32(out[4+8*i:], off)
		binary.LittleEndian.PutUint32(out[8+8*i:], ln)
	}
	return out
}

// heuristicNames returns the deduplicated heuristic vocabulary of the
// snapshot, sorted (a handful of §5.4 rule names), plus the index of each.
func (s *Snapshot) heuristicNames() ([]string, map[string]uint32) {
	set := make(map[string]bool)
	for _, l := range s.links {
		set[l.Heuristic] = true
	}
	for _, o := range s.owners {
		set[o.Heuristic] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	idx := make(map[string]uint32, len(names))
	for i, n := range names {
		idx[n] = uint32(i)
	}
	return names, idx
}

// marshalSegment renders the snapshot as a complete segment file image.
func (s *Snapshot) marshalSegment() []byte {
	w := &segWriter{idx: make(map[string][2]uint32)}
	heurs, heurIdx := s.heuristicNames()

	vps := w.strList(s.vps)
	heurSec := w.strList(heurs)

	links := make([]byte, linkRecLen*len(s.links))
	for i, l := range s.links {
		p := links[linkRecLen*i:]
		binary.LittleEndian.PutUint32(p, uint32(l.Near))
		binary.LittleEndian.PutUint32(p[4:], uint32(l.Far))
		binary.LittleEndian.PutUint32(p[8:], uint32(l.FarAS))
		binary.LittleEndian.PutUint32(p[12:], heurIdx[l.Heuristic])
	}

	owners := make([]byte, ownerRecLen*len(s.owners))
	for i, o := range s.owners {
		p := owners[ownerRecLen*i:]
		binary.LittleEndian.PutUint32(p, uint32(o.AS))
		binary.LittleEndian.PutUint32(p[4:], heurIdx[o.Heuristic])
		binary.LittleEndian.PutUint32(p[8:], uint32(int32(o.HopDist)))
		var fl uint32
		if o.Host {
			fl = 1
		}
		binary.LittleEndian.PutUint32(p[12:], fl)
	}

	ownerAddrs := make([]byte, 4*len(s.ownerAddrs))
	for i, a := range s.ownerAddrs {
		binary.LittleEndian.PutUint32(ownerAddrs[4*i:], uint32(a))
	}

	sections := []struct {
		id      uint32
		payload []byte
	}{
		{secStrtab, w.strtab},
		{secVPs, vps},
		{secHeurs, heurSec},
		{secLinks, links},
		{secOwners, owners},
		{secOwnerAddrs, ownerAddrs},
	}

	pad8 := func(n int) int { return (n + 7) &^ 7 }
	headLen := segHeaderLen + segTableEntLen*len(sections) + 4 // + tableCRC
	off := pad8(headLen)
	total := off
	for _, sec := range sections {
		total = pad8(total + len(sec.payload))
	}

	buf := make([]byte, total)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint32(buf[4:], segVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.gen))
	binary.LittleEndian.PutUint32(buf[16:], uint32(s.host))
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(sections)))

	for i, sec := range sections {
		ent := buf[segHeaderLen+segTableEntLen*i:]
		binary.LittleEndian.PutUint32(ent, sec.id)
		binary.LittleEndian.PutUint64(ent[4:], uint64(off))
		binary.LittleEndian.PutUint64(ent[12:], uint64(len(sec.payload)))
		binary.LittleEndian.PutUint32(ent[20:], crc32.Checksum(sec.payload, segCRC))
		copy(buf[off:], sec.payload)
		off = pad8(off + len(sec.payload))
	}
	binary.LittleEndian.PutUint32(buf[headLen-4:],
		crc32.Checksum(buf[:headLen-4], segCRC))
	return buf
}

// WriteTo serializes the snapshot in segment format v1. The byte stream
// is exactly what ReadSegment decodes — it is both the on-disk layout and
// the full-sync replication wire format.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(s.marshalSegment())
	return int64(n), err
}

// writeSegmentFile publishes snap into dir crash-safely: the image is
// written to a temp file, fsynced, atomically renamed to its final
// gen-NNNNNNNN.seg name, and the directory entry fsynced. A crash at any
// point leaves either the complete previous state or the complete new
// file — never a partially visible segment.
func writeSegmentFile(dir string, snap *Snapshot) error {
	final := segmentPath(dir, snap.gen)
	tmp := final + segTmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := snap.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Reading

// OpenSegment reads a segment file and decodes it with ReadSegment. The
// returned snapshot carries the generation number recorded at publish
// time.
func OpenSegment(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := ReadSegment(data)
	if err != nil {
		return nil, fmt.Errorf("mapdb: segment %s: %w", path, err)
	}
	return snap, nil
}

// segReader carries the validated section table during parse.
type segReader struct {
	secs map[uint32][]byte
}

// section returns the payload of id, or an error naming it as missing.
func (r *segReader) section(id uint32) ([]byte, error) {
	p, ok := r.secs[id]
	if !ok {
		return nil, fmt.Errorf("missing section %d", id)
	}
	return p, nil
}

func (r *segReader) strAt(off, ln uint32) (string, error) {
	strtab := r.secs[secStrtab]
	if int64(off)+int64(ln) > int64(len(strtab)) {
		return "", fmt.Errorf("string ref %d+%d beyond string table (%d bytes)", off, ln, len(strtab))
	}
	return string(strtab[off : off+ln]), nil
}

func (r *segReader) strList(id uint32) ([]string, error) {
	p, err := r.section(id)
	if err != nil {
		return nil, err
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("section %d: truncated list header", id)
	}
	n := int(binary.LittleEndian.Uint32(p))
	if len(p) < 4+8*n {
		return nil, fmt.Errorf("section %d: %d entries beyond payload", id, n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		off := binary.LittleEndian.Uint32(p[4+8*i:])
		ln := binary.LittleEndian.Uint32(p[8+8*i:])
		s, err := r.strAt(off, ln)
		if err != nil {
			return nil, fmt.Errorf("section %d: %w", id, err)
		}
		out[i] = s
	}
	return out, nil
}

// ReadSegment decodes a segment image held in memory — a file OpenSegment
// read, or the one the follower's full-sync path receives over HTTP. It
// validates the image (magic, version, table CRC, bounds, per-section
// CRCs, heuristic indices, one address per owner record, no address
// twice), accepts links and owners in any order, and assembles the Snapshot
// in canonical order with freshly derived indexes. Everything is copied
// onto the heap; data is not retained.
func ReadSegment(data []byte) (*Snapshot, error) {
	if len(data) < segHeaderLen+4 {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if string(data[:4]) != segMagic {
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != segVersion {
		return nil, fmt.Errorf("unsupported format version %d (want %d)", v, segVersion)
	}
	gen := binary.LittleEndian.Uint64(data[8:])
	host := topo.ASN(binary.LittleEndian.Uint32(data[16:]))
	nsect := int(binary.LittleEndian.Uint32(data[24:]))
	if nsect < 0 || nsect > 4096 {
		return nil, fmt.Errorf("implausible section count %d", nsect)
	}
	headLen := segHeaderLen + segTableEntLen*nsect + 4
	if len(data) < headLen {
		return nil, fmt.Errorf("truncated section table (%d bytes, need %d)", len(data), headLen)
	}
	wantCRC := binary.LittleEndian.Uint32(data[headLen-4:])
	if got := crc32.Checksum(data[:headLen-4], segCRC); got != wantCRC {
		return nil, fmt.Errorf("header CRC mismatch (got %08x want %08x)", got, wantCRC)
	}

	r := &segReader{secs: make(map[uint32][]byte, nsect)}
	for i := 0; i < nsect; i++ {
		ent := data[segHeaderLen+segTableEntLen*i:]
		id := binary.LittleEndian.Uint32(ent)
		off := binary.LittleEndian.Uint64(ent[4:])
		ln := binary.LittleEndian.Uint64(ent[12:])
		crc := binary.LittleEndian.Uint32(ent[20:])
		if off > uint64(len(data)) || ln > uint64(len(data))-off {
			return nil, fmt.Errorf("section %d: range %d+%d beyond file (%d bytes)", id, off, ln, len(data))
		}
		p := data[off : off+ln : off+ln]
		if got := crc32.Checksum(p, segCRC); got != crc {
			return nil, fmt.Errorf("section %d: CRC mismatch (got %08x want %08x)", id, got, crc)
		}
		r.secs[id] = p
	}

	s := &Snapshot{gen: int(gen), host: host}

	var err error
	if s.vps, err = r.strList(secVPs); err != nil {
		return nil, err
	}
	heurs, err := r.strList(secHeurs)
	if err != nil {
		return nil, err
	}
	heurAt := func(i uint32, what string, rec int) (string, error) {
		if int(i) >= len(heurs) {
			return "", fmt.Errorf("%s record %d: heuristic index %d beyond vocabulary (%d)", what, rec, i, len(heurs))
		}
		return heurs[i], nil
	}

	lp, err := r.section(secLinks)
	if err != nil {
		return nil, err
	}
	if len(lp)%linkRecLen != 0 {
		return nil, fmt.Errorf("links section: length %d not a multiple of %d", len(lp), linkRecLen)
	}
	s.links = make([]Link, len(lp)/linkRecLen)
	for i := range s.links {
		p := lp[linkRecLen*i:]
		h, err := heurAt(binary.LittleEndian.Uint32(p[12:]), "link", i)
		if err != nil {
			return nil, err
		}
		s.links[i] = Link{
			Near:      netx.Addr(binary.LittleEndian.Uint32(p)),
			Far:       netx.Addr(binary.LittleEndian.Uint32(p[4:])),
			FarAS:     topo.ASN(binary.LittleEndian.Uint32(p[8:])),
			Heuristic: h,
		}
	}

	op, err := r.section(secOwners)
	if err != nil {
		return nil, err
	}
	if len(op)%ownerRecLen != 0 {
		return nil, fmt.Errorf("owners section: length %d not a multiple of %d", len(op), ownerRecLen)
	}
	s.owners = make([]OwnerInfo, len(op)/ownerRecLen)
	for i := range s.owners {
		p := op[ownerRecLen*i:]
		h, err := heurAt(binary.LittleEndian.Uint32(p[4:]), "owner", i)
		if err != nil {
			return nil, err
		}
		s.owners[i] = OwnerInfo{
			AS:        topo.ASN(binary.LittleEndian.Uint32(p)),
			Heuristic: h,
			HopDist:   int(int32(binary.LittleEndian.Uint32(p[8:]))),
			Host:      binary.LittleEndian.Uint32(p[12:])&1 != 0,
		}
	}

	ap, err := r.section(secOwnerAddrs)
	if err != nil {
		return nil, err
	}
	if len(ap) != 4*len(s.owners) {
		return nil, fmt.Errorf("ownerAddrs section: %d bytes for %d owners", len(ap), len(s.owners))
	}
	s.ownerAddrs = make([]netx.Addr, len(s.owners))
	for i := range s.ownerAddrs {
		s.ownerAddrs[i] = netx.Addr(binary.LittleEndian.Uint32(ap[4*i:]))
	}

	s.finishIndexes()
	for i := 1; i < len(s.ownerAddrs); i++ {
		if s.ownerAddrs[i] == s.ownerAddrs[i-1] {
			return nil, fmt.Errorf("owner address %s recorded twice", s.ownerAddrs[i])
		}
	}
	return s, nil
}
