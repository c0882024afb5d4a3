package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/xdm"
)

// MmapSupported reports whether LoadMmap maps files on this platform
// (false means it transparently falls back to Load).
func MmapSupported() bool { return mmapSupported }

// mappings retains every snapshot mapping for the life of the process,
// deduplicated by file identity (a Fingerprint). Retention is a
// correctness requirement, not a leak: string data decoded from a mapping
// escapes into query results as zero-copy views (atomized values,
// StringValue output), and those strings carry no reference back to the
// mapping or its Document — so no point where unmapping is provably safe
// exists. The mappings are read-only and file-backed (clean page cache),
// so retention costs address space, not resident memory; and because
// re-opening the same snapshot file reuses its mapping, cache-eviction
// churn does not accumulate mappings. A rewritten snapshot (different
// size or mtime) gets, and keeps, a fresh mapping.
var (
	mapMu    sync.Mutex
	mappings = map[Fingerprint][]byte{}
)

// LoadMmap opens a snapshot by mapping the file read-only and decoding
// zero-copy views into the mapping — no string bytes are copied, so
// multi-gigabyte snapshots open in milliseconds (the checksum pass is
// the only full scan). Mappings are retained for the process lifetime
// and shared across loads of the same file (see mappings above). On
// platforms without mmap it falls back to Load.
func LoadMmap(path string) (*xdm.Document, error) {
	if !mmapSupported {
		return Load(path)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = filepath.Clean(path)
	}
	f, err := os.Open(abs)
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
	key := fingerprintOf(abs, st)

	mapMu.Lock()
	data, ok := mappings[key]
	if !ok {
		var release func()
		data, release, err = mmapFile(f, st.Size())
		if err != nil {
			mapMu.Unlock()
			return nil, fmt.Errorf("store: mmap %s: %w", path, err)
		}
		_ = release // retained for the process lifetime; see mappings
		mappings[key] = data
	}
	mapMu.Unlock()

	d, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return d, nil
}
