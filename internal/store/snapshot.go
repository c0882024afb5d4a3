// Package store is the persistent document subsystem: a versioned binary
// snapshot format for xdm document arenas (write once with xmlgen or any
// parse, open in milliseconds thereafter), a zero-copy mmap open path, a
// concurrency-safe bounded document cache with LRU eviction and query-time
// pinning, and a directory-backed Store that resolves fn:doc URIs
// snapshot-first with XML parsing as the fallback.
//
// Snapshot format (version 2, file extension ".xqs")
//
//	offset 0   magic   "XQSNAP\x00" (7 bytes) + version byte
//	offset 8   header  little-endian uint64s — 8 fields in version 1,
//	           12 in version 2:
//	           nodeCount, nameCount, nameBlobLen, valueBlobLen,
//	           idCount, idBlobLen, uriLen, payloadLen
//	           [v2:] postCount, postBlobLen, pathCount, reserved (0)
//	payload    sections, each starting at an 8-byte-aligned offset
//	           (zero padding between sections):
//	             uri        [uriLen]byte
//	             kinds      [nodeCount]uint8
//	             parents    [nodeCount]int32
//	             sizes      [nodeCount]int32
//	             levels     [nodeCount]int32
//	             nameIDs    [nodeCount]uint32   index into the name table;
//	                                            id 0 is the empty name
//	             nameEnds   [nameCount]uint32   cumulative end offsets
//	             nameBlob   [nameBlobLen]byte   interned name bytes
//	             valueEnds  [nodeCount]uint64   cumulative end offsets
//	             valueBlob  [valueBlobLen]byte  node content bytes
//	             idPres     [idCount]int32      ID index, sorted by ID value
//	             idEnds     [idCount]uint32     cumulative end offsets
//	             idBlob     [idBlobLen]byte     ID value bytes
//	           version 2 appends the name-index sections:
//	             postKeys   [postCount]uint64   nameID<<32 | kind<<8 | enc,
//	                                            sorted (kind, name); enc 0 is
//	                                            flat int32, enc 1 delta-uvarint
//	             postEnds   [postCount]uint64   cumulative end offsets into
//	                                            postBlob; each list starts at
//	                                            the next 4-aligned offset
//	             postBlob   [postBlobLen]byte   posting list bytes
//	             pathNames  [pathCount]uint32   path-summary trie, preorder:
//	             pathKinds  [pathCount]uint8    node kind per path
//	             pathParents[pathCount]int32    parent path (-1 at the root)
//	             pathCounts [pathCount]int32    arena nodes on this path
//	             pathMins   [pathCount]int32    min preorder rank on the path
//	             pathMaxs   [pathCount]int32    max preorder rank on the path
//	trailer    CRC-32C (Castagnoli) of header + payload, stored in the
//	           low half of an 8-byte little-endian word (alignment-
//	           preserving; hardware-accelerated on amd64/arm64)
//
// The node vectors are xdm.Document's own columns (see xdm's arena.go), so
// an opened snapshot is the document: the integer vectors are
// reinterpreted as typed slices over the read buffer or mapping (the
// 8-byte section alignment plus the 8-aligned buffer or page-aligned
// mapping make the casts legal) and the value blob and names are unsafe
// zero-copy string views into it. Opening a snapshot allocates the name
// table, the ID map and the index's lookup structures, never a per-node
// record, and copies no string data. Flat posting lists are consumed in
// place the same way (4-aligned within an 8-aligned section);
// delta-encoded lists decode at open. Version 1 files still open — their
// index is built lazily from the arena on first use
// (xdm.Document.Index) — and the CRC covers the v2 index sections, so a
// corrupted index is rejected with the rest of the file. The CRC is not
// what bounds the accessors: a header's counts are checked against the
// payload before any section offset is computed, and xdm.NewDocument
// validates the node table structurally, so an image with a recomputed
// checksum is either rejected or opens into columns that every accessor
// walks without leaving them (FuzzSnapshotOpen).
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"repro/internal/xdm"
)

// Version is the current snapshot format version. Version 1 files (no
// index sections) still open.
const Version = 2

// Ext is the conventional snapshot file extension.
const Ext = ".xqs"

const (
	magic       = "XQSNAP\x00"
	headerLenV1 = 8 + 8*8  // magic+version, then 8 uint64 fields
	headerLenV2 = 8 + 8*12 // v1 fields + postCount, postBlobLen, pathCount, reserved
	trailerLen  = 8
)

// headerLenFor returns the header length of a format version.
func headerLenFor(version byte) uint64 {
	if version >= 2 {
		return headerLenV2
	}
	return headerLenV1
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type header struct {
	nodeCount    uint64
	nameCount    uint64
	nameBlobLen  uint64
	valueBlobLen uint64
	idCount      uint64
	idBlobLen    uint64
	uriLen       uint64
	payloadLen   uint64
	// Version 2 index sections; all zero in version 1 files (the index
	// section offsets then collapse to the payload end).
	postCount   uint64
	postBlobLen uint64
	pathCount   uint64
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }
func align4(x uint64) uint64 { return (x + 3) &^ 3 }

// sections holds the payload-relative start offset of every section,
// mirroring the writer's layout exactly.
type sections struct {
	uri, kinds, parents, sizes, levels, nameIDs, nameEnds, nameBlob uint64
	valueEnds, valueBlob, idPres, idEnds, idBlob                    uint64
	postKeys, postEnds, postBlob                                    uint64
	pathNames, pathKinds, pathParents                               uint64
	pathCounts, pathMins, pathMaxs                                  uint64
	end                                                             uint64
}

// sectionOffsets lays the sections out in order, each starting 8-aligned,
// and fails when one would end past limit. Each count is checked against
// the room left before it is multiplied by its width, so no header can
// wrap the offset arithmetic.
func (h *header) sectionOffsets(limit uint64) (sections, error) {
	n := h.nodeCount
	off := uint64(0)
	var err error
	next := func(count, width uint64) uint64 {
		start := off
		if err != nil {
			return 0
		}
		if start > limit || count > (limit-start)/width {
			err = fmt.Errorf("snapshot section of %d×%d bytes at offset %d exceeds payload (%d bytes)", count, width, start, limit)
			return 0
		}
		off = align8(start + count*width)
		return start
	}
	var s sections
	s.uri = next(h.uriLen, 1)
	s.kinds = next(n, 1)
	s.parents = next(n, 4)
	s.sizes = next(n, 4)
	s.levels = next(n, 4)
	s.nameIDs = next(n, 4)
	s.nameEnds = next(h.nameCount, 4)
	s.nameBlob = next(h.nameBlobLen, 1)
	s.valueEnds = next(n, 8)
	s.valueBlob = next(h.valueBlobLen, 1)
	s.idPres = next(h.idCount, 4)
	s.idEnds = next(h.idCount, 4)
	s.idBlob = next(h.idBlobLen, 1)
	s.postKeys = next(h.postCount, 8)
	s.postEnds = next(h.postCount, 8)
	s.postBlob = next(h.postBlobLen, 1)
	s.pathNames = next(h.pathCount, 4)
	s.pathKinds = next(h.pathCount, 1)
	s.pathParents = next(h.pathCount, 4)
	s.pathCounts = next(h.pathCount, 4)
	s.pathMins = next(h.pathCount, 4)
	s.pathMaxs = next(h.pathCount, 4)
	s.end = off
	return s, err
}

// WriteSnapshot serializes the document to w in the current snapshot
// format (version 2, with name-index and path-summary sections).
func WriteSnapshot(w io.Writer, d *xdm.Document) error {
	return writeSnapshot(w, d, Version)
}

// writeSnapshot serializes in the requested format version; version 1
// omits the index sections (kept so compat tests can produce v1 files).
func writeSnapshot(w io.Writer, d *xdm.Document, version byte) error {
	// The node sections are the document's columns as they are.
	c := d.Columns()
	nameEnds := make([]uint32, len(c.Names))
	var nameBlob []byte
	for i, name := range c.Names {
		nameBlob = append(nameBlob, name...)
		nameEnds[i] = uint32(len(nameBlob))
	}

	// ID index, sorted by ID value so snapshots are deterministic.
	type idEntry struct {
		id  string
		pre int32
	}
	var ids []idEntry
	d.VisitIDs(func(id string, pre int32) { ids = append(ids, idEntry{id, pre}) })
	sort.Slice(ids, func(i, j int) bool { return ids[i].id < ids[j].id })
	idPres := make([]byte, 4*len(ids))
	idEnds := make([]byte, 4*len(ids))
	var idBlob []byte
	for i, e := range ids {
		binary.LittleEndian.PutUint32(idPres[4*i:], uint32(e.pre))
		idBlob = append(idBlob, e.id...)
		binary.LittleEndian.PutUint32(idEnds[4*i:], uint32(len(idBlob)))
	}

	// Version 2: serialize the document's name/path index. The index comes
	// from the same lazy builder queries use (xdm.Document.Index), so the
	// persistent and in-memory forms agree by construction. Posting lists
	// are keyed by name id; every indexed name is a node name, so the
	// lookup cannot miss.
	nameID := func(name string) uint32 {
		id, _ := d.NameID(name)
		return id
	}
	var postKeys, postEnds, postBlob []byte
	var pathNames, pathKinds, pathParents, pathCounts, pathMins, pathMaxs []byte
	var postCount, pathCount int
	if version >= 2 {
		ix := d.Index()
		keys := ix.Keys()
		postCount = len(keys)
		postKeys = make([]byte, 8*postCount)
		postEnds = make([]byte, 8*postCount)
		for i, key := range keys {
			list := ix.List(i)
			// Each list starts 4-aligned so flat encodings are zero-copy
			// typed slices when the file is mmap'd.
			for pad := align4(uint64(len(postBlob))) - uint64(len(postBlob)); pad > 0; pad-- {
				postBlob = append(postBlob, 0)
			}
			enc, encoded := encodePostings(list)
			postBlob = append(postBlob, encoded...)
			binary.LittleEndian.PutUint64(postEnds[8*i:], uint64(len(postBlob)))
			word := uint64(nameID(key.Name))<<32 | uint64(key.Kind)<<8 | uint64(enc)
			binary.LittleEndian.PutUint64(postKeys[8*i:], word)
		}
		paths := ix.Paths()
		pathCount = len(paths)
		pathNames = make([]byte, 4*pathCount)
		pathKinds = make([]byte, pathCount)
		pathParents = make([]byte, 4*pathCount)
		pathCounts = make([]byte, 4*pathCount)
		pathMins = make([]byte, 4*pathCount)
		pathMaxs = make([]byte, 4*pathCount)
		for i, p := range paths {
			binary.LittleEndian.PutUint32(pathNames[4*i:], nameID(p.Name))
			pathKinds[i] = byte(p.Kind)
			binary.LittleEndian.PutUint32(pathParents[4*i:], uint32(p.Parent))
			binary.LittleEndian.PutUint32(pathCounts[4*i:], uint32(p.Count))
			binary.LittleEndian.PutUint32(pathMins[4*i:], uint32(p.MinPre))
			binary.LittleEndian.PutUint32(pathMaxs[4*i:], uint32(p.MaxPre))
		}
	}

	h := header{
		nodeCount:    uint64(len(c.Kinds)),
		nameCount:    uint64(len(c.Names)),
		nameBlobLen:  uint64(len(nameBlob)),
		valueBlobLen: uint64(len(c.Values)),
		idCount:      uint64(len(ids)),
		idBlobLen:    uint64(len(idBlob)),
		uriLen:       uint64(len(d.URI)),
		postCount:    uint64(postCount),
		postBlobLen:  uint64(len(postBlob)),
		pathCount:    uint64(pathCount),
	}
	s, err := h.sectionOffsets(math.MaxInt64)
	if err != nil {
		return err
	}
	h.payloadLen = s.end

	hdrFields := []uint64{h.nodeCount, h.nameCount, h.nameBlobLen, h.valueBlobLen,
		h.idCount, h.idBlobLen, h.uriLen, h.payloadLen}
	if version >= 2 {
		hdrFields = append(hdrFields, h.postCount, h.postBlobLen, h.pathCount, 0)
	}
	hdr := make([]byte, headerLenFor(version))
	copy(hdr, magic)
	hdr[7] = version
	for i, v := range hdrFields {
		binary.LittleEndian.PutUint64(hdr[8+8*i:], v)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	// Stream header + payload through the checksum: covering the header
	// means corrupted section sizes are caught before the decoder trusts
	// them.
	crc := crc32.New(crcTable)
	crc.Write(hdr)
	pw := &paddedWriter{w: io.MultiWriter(w, crc)}
	body := [][]byte{
		[]byte(d.URI), leBytes(c.Kinds), leBytes(c.Parents), leBytes(c.Sizes),
		leBytes(c.Levels), leBytes(c.NameIDs), leBytes(nameEnds), nameBlob,
		leBytes(c.ValueEnds), stringBytes(c.Values), idPres, idEnds, idBlob,
	}
	if version >= 2 {
		body = append(body, postKeys, postEnds, postBlob,
			pathNames, pathKinds, pathParents, pathCounts, pathMins, pathMaxs)
	}
	for _, section := range body {
		if err := pw.writeSection(section); err != nil {
			return err
		}
	}
	if pw.off != h.payloadLen {
		return fmt.Errorf("store: internal error: wrote %d payload bytes, expected %d", pw.off, h.payloadLen)
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(crc.Sum32()))
	_, err = w.Write(trailer[:])
	return err
}

// leBytes returns the little-endian bytes of a fixed-width vector: a view
// of its memory on little-endian hosts, an encoded copy otherwise.
func leBytes[T xdm.NodeKind | int32 | uint32 | uint64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	width := int(unsafe.Sizeof(v[0]))
	if littleEndianHost {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), width*len(v))
	}
	out := make([]byte, 0, width*len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, uint64(x))[:len(out)+width]
	}
	return out
}

// stringBytes returns a read-only byte view of s.
func stringBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// Posting-list encodings (low byte of the postKeys word).
const (
	encFlat  = 0 // little-endian int32 vector, zero-copy on mmap
	encDelta = 1 // uvarint first value, then uvarint gaps
)

// encodePostings picks the smaller of the two encodings for an ascending
// preorder list: delta-uvarint when it strictly beats the flat 4-byte
// vector (dense lists have gap 1 and shrink ~4×), flat otherwise (flat
// stays zero-copy at open).
func encodePostings(list []int32) (enc byte, encoded []byte) {
	var buf [binary.MaxVarintLen64]byte
	delta := make([]byte, 0, 4*len(list))
	prev := int32(0)
	for _, v := range list {
		delta = append(delta, buf[:binary.PutUvarint(buf[:], uint64(v-prev))]...)
		prev = v
	}
	if len(delta) < 4*len(list) {
		return encDelta, delta
	}
	flat := make([]byte, 4*len(list))
	for i, v := range list {
		binary.LittleEndian.PutUint32(flat[4*i:], uint32(v))
	}
	return encFlat, flat
}

// decodeDeltaPostings expands a delta-uvarint list; the count is not
// stored (the byte range is), so it decodes until the bytes run out.
func decodeDeltaPostings(b []byte) ([]int32, error) {
	var out []int32
	prev := int64(0)
	for len(b) > 0 {
		gap, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("truncated varint")
		}
		b = b[n:]
		prev += int64(gap)
		out = append(out, int32(prev))
	}
	return out, nil
}

// paddedWriter writes sections followed by zero padding to the next
// 8-byte boundary, tracking the payload offset.
type paddedWriter struct {
	w   io.Writer
	off uint64
}

var zeros [8]byte

func (p *paddedWriter) writeSection(b []byte) error {
	if _, err := p.w.Write(b); err != nil {
		return err
	}
	p.off += uint64(len(b))
	if pad := align8(p.off) - p.off; pad > 0 {
		if _, err := p.w.Write(zeros[:pad]); err != nil {
			return err
		}
		p.off += pad
	}
	return nil
}

// Save writes the document's snapshot to path atomically (temp file +
// rename), creating parent directories as needed.
func Save(path string, d *xdm.Document) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".xqs-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, d); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads a snapshot file fully into memory and decodes it. The
// returned document's node columns and strings are views of the read
// buffer (no per-node or per-string copies).
func Load(path string) (*xdm.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < headerLenV1+trailerLen {
		return nil, fmt.Errorf("store: %s: snapshot truncated (%d bytes)", path, st.Size())
	}
	// Allocate via []uint64 so the buffer base is 8-byte aligned and the
	// decoder's typed-slice casts are legal.
	words := make([]uint64, (st.Size()+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	d, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return d, nil
}

// Decode decodes a snapshot image (version 1 or 2). The returned
// document's node columns and strings are zero-copy views into data
// (on little-endian hosts, where data is suitably aligned); the caller
// must not mutate it afterwards. Version 2 images carry their name/path
// index, attached to the document before it is published; version 1
// documents build theirs lazily on first use.
func Decode(data []byte) (*xdm.Document, error) {
	if len(data) < headerLenV1+trailerLen {
		return nil, fmt.Errorf("snapshot truncated (%d bytes)", len(data))
	}
	if string(data[:7]) != magic {
		return nil, fmt.Errorf("not a snapshot (bad magic)")
	}
	version := data[7]
	if version != 1 && version != Version {
		return nil, fmt.Errorf("snapshot version %d, want 1..%d", version, Version)
	}
	hdrLen := headerLenFor(version)
	if uint64(len(data)) < hdrLen+trailerLen {
		return nil, fmt.Errorf("snapshot truncated (%d bytes)", len(data))
	}
	var h header
	fields := []*uint64{&h.nodeCount, &h.nameCount, &h.nameBlobLen, &h.valueBlobLen,
		&h.idCount, &h.idBlobLen, &h.uriLen, &h.payloadLen}
	if version >= 2 {
		fields = append(fields, &h.postCount, &h.postBlobLen, &h.pathCount)
	}
	for i, p := range fields {
		*p = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	if h.payloadLen > uint64(len(data)) ||
		uint64(len(data)) != hdrLen+h.payloadLen+trailerLen {
		return nil, fmt.Errorf("snapshot size %d does not match header payload length %d", len(data), h.payloadLen)
	}
	payload := data[hdrLen : hdrLen+h.payloadLen]
	want := binary.LittleEndian.Uint64(data[hdrLen+h.payloadLen:])
	if got := uint64(crc32.Checksum(data[:hdrLen+h.payloadLen], crcTable)); got != want {
		return nil, fmt.Errorf("snapshot checksum mismatch (corrupted file): got %08x want %08x", got, want)
	}

	s, err := h.sectionOffsets(h.payloadLen)
	if err != nil {
		return nil, err
	}
	if s.end != h.payloadLen {
		return nil, fmt.Errorf("snapshot sections (%d bytes) exceed payload (%d bytes)", s.end, h.payloadLen)
	}
	n := int(h.nodeCount)
	uri := string(payload[s.uri : s.uri+h.uriLen])
	nameEnds := uint32sAt(payload, s.nameEnds, int(h.nameCount))
	nameBlob := payload[s.nameBlob : s.nameBlob+h.nameBlobLen]

	// Materialize the (small) interned name table as zero-copy views.
	names := make([]string, h.nameCount)
	prev := uint32(0)
	for i := range names {
		end := nameEnds[i]
		if end < prev || uint64(end) > h.nameBlobLen {
			return nil, fmt.Errorf("snapshot name table offsets corrupt at entry %d", i)
		}
		names[i] = viewString(nameBlob[prev:end])
		prev = end
	}

	idPres := int32sAt(payload, s.idPres, int(h.idCount))
	idEnds := uint32sAt(payload, s.idEnds, int(h.idCount))
	idBlob := payload[s.idBlob : s.idBlob+h.idBlobLen]
	ids := make(map[string]int32, h.idCount)
	prev = 0
	for i := 0; i < int(h.idCount); i++ {
		end := idEnds[i]
		if end < prev || uint64(end) > h.idBlobLen {
			return nil, fmt.Errorf("snapshot ID offsets corrupt at entry %d", i)
		}
		ids[viewString(idBlob[prev:end])] = idPres[i]
		prev = end
	}

	var ix *xdm.Index
	if version >= 2 {
		if ix, err = decodeIndex(&h, &s, payload, names); err != nil {
			return nil, err
		}
	}
	kinds := payload[s.kinds : s.kinds+h.nodeCount]
	return xdm.NewDocument(uri, xdm.Columns{
		Kinds:     unsafe.Slice((*xdm.NodeKind)(unsafe.SliceData(kinds)), n),
		Parents:   int32sAt(payload, s.parents, n),
		Sizes:     int32sAt(payload, s.sizes, n),
		Levels:    int32sAt(payload, s.levels, n),
		NameIDs:   uint32sAt(payload, s.nameIDs, n),
		Names:     names,
		ValueEnds: uint64sAt(payload, s.valueEnds, n),
		Values:    viewString(payload[s.valueBlob : s.valueBlob+h.valueBlobLen]),
	}, ids, ix)
}

// decodeIndex reconstructs the xdm.Index from a v2 image's index sections.
// Flat posting lists stay zero-copy views into the payload; delta lists
// decode here. Validation is what keeps indexing panic-free on any image
// whose checksum holds (name ids, offsets, list order and bounds).
func decodeIndex(h *header, s *sections, payload []byte, names []string) (*xdm.Index, error) {
	postKeys := uint64sAt(payload, s.postKeys, int(h.postCount))
	postEnds := uint64sAt(payload, s.postEnds, int(h.postCount))
	postBlob := payload[s.postBlob : s.postBlob+h.postBlobLen]
	keys := make([]xdm.PostingKey, h.postCount)
	lists := make([][]int32, h.postCount)
	var off uint64
	for i := range postKeys {
		word := postKeys[i]
		nameID := word >> 32
		kind := xdm.NodeKind(word >> 8 & 0xff)
		enc := byte(word)
		if nameID >= h.nameCount {
			return nil, fmt.Errorf("snapshot posting %d references unknown name id %d", i, nameID)
		}
		start := align4(off)
		end := postEnds[i]
		if end < start || end > h.postBlobLen {
			return nil, fmt.Errorf("snapshot posting offsets corrupt at entry %d", i)
		}
		b := postBlob[start:end]
		var list []int32
		switch enc {
		case encFlat:
			if len(b)%4 != 0 {
				return nil, fmt.Errorf("snapshot posting %d misaligned (%d bytes)", i, len(b))
			}
			list = int32sAt(postBlob, start, len(b)/4)
		case encDelta:
			var err error
			if list, err = decodeDeltaPostings(b); err != nil {
				return nil, fmt.Errorf("snapshot posting %d: %v", i, err)
			}
		default:
			return nil, fmt.Errorf("snapshot posting %d has unknown encoding %d", i, enc)
		}
		// The step kernel cuts lists by binary search and indexes the
		// node columns with every entry it keeps: each list must ascend
		// strictly within the non-root node range.
		last := int32(0)
		for _, pre := range list {
			if pre <= last || uint64(pre) >= h.nodeCount {
				return nil, fmt.Errorf("snapshot posting %d out of node range or order", i)
			}
			last = pre
		}
		keys[i] = xdm.PostingKey{Name: names[nameID], Kind: kind}
		lists[i] = list
		off = end
	}

	pathNames := uint32sAt(payload, s.pathNames, int(h.pathCount))
	pathKinds := payload[s.pathKinds : s.pathKinds+h.pathCount]
	pathParents := int32sAt(payload, s.pathParents, int(h.pathCount))
	pathCounts := int32sAt(payload, s.pathCounts, int(h.pathCount))
	pathMins := int32sAt(payload, s.pathMins, int(h.pathCount))
	pathMaxs := int32sAt(payload, s.pathMaxs, int(h.pathCount))
	paths := make([]xdm.PathNode, h.pathCount)
	for i := range paths {
		if uint64(pathNames[i]) >= h.nameCount {
			return nil, fmt.Errorf("snapshot path %d references unknown name id %d", i, pathNames[i])
		}
		if p := pathParents[i]; p >= int32(i) && p != -1 || p < -1 {
			return nil, fmt.Errorf("snapshot path %d has invalid parent %d", i, p)
		}
		paths[i] = xdm.PathNode{
			Name:   names[pathNames[i]],
			Kind:   xdm.NodeKind(pathKinds[i]),
			Parent: pathParents[i],
			Count:  pathCounts[i],
			MinPre: pathMins[i],
			MaxPre: pathMaxs[i],
		}
	}
	bytes := int64(s.end - s.postKeys)
	return xdm.NewIndex(keys, lists, paths, bytes), nil
}

// viewString returns a zero-copy string over b ("" for empty slices).
// The string is valid as long as b's backing storage is.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// littleEndianHost reports whether typed-slice casts read the snapshot's
// little-endian vectors correctly on this machine.
var littleEndianHost = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func aligned(b []byte, align uintptr) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%align == 0
}

// int32sAt returns the int32 vector of count entries starting at off:
// a zero-copy reinterpretation on aligned little-endian hosts, a decoded
// copy otherwise.
func int32sAt(payload []byte, off uint64, count int) []int32 {
	b := payload[off : off+uint64(4*count)]
	if count == 0 {
		return nil
	}
	if littleEndianHost && aligned(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func uint32sAt(payload []byte, off uint64, count int) []uint32 {
	b := payload[off : off+uint64(4*count)]
	if count == 0 {
		return nil
	}
	if littleEndianHost && aligned(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]uint32, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func uint64sAt(payload []byte, off uint64, count int) []uint64 {
	b := payload[off : off+uint64(8*count)]
	if count == 0 {
		return nil
	}
	if littleEndianHost && aligned(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}
