package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/xdm"
	"repro/internal/xmldoc"
)

// Options configure a Store.
type Options struct {
	// Dir is the directory searched for snapshots and XML documents.
	Dir string
	// Mmap opens snapshots by memory-mapping instead of reading them.
	Mmap bool
	// MaxBytes / MaxDocs bound the document cache (see CacheOptions).
	MaxBytes int64
	MaxDocs  int
	// NoParseFallback disables parsing <dir>/<uri> as XML when no
	// snapshot exists, making the store snapshot-only.
	NoParseFallback bool
}

// Store resolves fn:doc URIs against a directory of snapshots and XML
// files through a bounded document cache. Resolution order for URI u is
// explicit: the snapshot <dir>/<u>.xqs (or <dir>/<u> itself when u
// already ends in .xqs), then the XML file <dir>/<u>, then an error
// naming the URI and every path searched.
type Store struct {
	opts  Options
	cache *Cache
}

// Open validates the directory and builds the store and its cache.
func Open(opts Options) (*Store, error) {
	st, err := os.Stat(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("store: %s is not a directory", opts.Dir)
	}
	s := &Store{opts: opts}
	s.cache = NewCache(CacheOptions{
		Loader:   s.load,
		Stat:     s.fingerprint,
		MaxBytes: opts.MaxBytes,
		MaxDocs:  opts.MaxDocs,
	})
	return s, nil
}

// Dir returns the store's base directory.
func (s *Store) Dir() string { return s.opts.Dir }

// Mmap reports whether the store opens snapshots via mmap.
func (s *Store) Mmap() bool { return s.opts.Mmap && mmapSupported }

// Cache exposes the store's document cache (stats, monitoring).
func (s *Store) Cache() *Cache { return s.cache }

// Session opens a pin-tracking resolution session; use its Resolve as
// the engines' DocResolver and Close it when the query completes.
func (s *Store) Session() *Session { return s.cache.Session() }

// Close releases the store's resources: the document cache is purged of
// everything not pinned by a still-live session. Mmap-backed documents
// keep their mappings (see mmap.go — unmapping is never provably safe
// while zero-copy views may exist); Close is about returning heap to the
// collector on graceful shutdown, not about file handles.
func (s *Store) Close() {
	s.cache.Purge()
}

// SnapshotPath returns the snapshot path that serves uri.
func (s *Store) SnapshotPath(uri string) (string, error) {
	clean, err := s.safeJoin(uri)
	if err != nil {
		return "", err
	}
	if strings.HasSuffix(clean, Ext) {
		return clean, nil
	}
	return clean + Ext, nil
}

// safeJoin resolves uri under the store directory, rejecting escapes.
func (s *Store) safeJoin(uri string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(uri))
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
		return "", xdm.Errorf(xdm.ErrDoc, "document URI %q escapes store directory %q", uri, s.opts.Dir)
	}
	return filepath.Join(s.opts.Dir, clean), nil
}

// locate finds the file that serves uri, in resolution order: the
// snapshot, then the XML file <dir>/<uri> unless NoParseFallback is set
// or uri itself names a snapshot. It stats without reading and reports
// whether the file is a snapshot. A snapshot that exists but cannot be
// stat'ed (permission or I/O failure) is a hard error, never a reason to
// serve the XML; a URI nothing serves is a not-found error naming every
// path searched.
func (s *Store) locate(uri string) (fp Fingerprint, snapshot bool, err error) {
	snapPath, err := s.SnapshotPath(uri)
	if err != nil {
		return Fingerprint{}, false, err
	}
	st, err := os.Stat(snapPath)
	if err == nil {
		return fingerprintOf(snapPath, st), true, nil
	}
	if !os.IsNotExist(err) {
		return Fingerprint{}, false, xdm.Errorf(xdm.ErrDoc, "doc(%q): snapshot %s: %v", uri, snapPath, err)
	}
	searched := "snapshot " + snapPath
	if !s.opts.NoParseFallback && !strings.HasSuffix(uri, Ext) {
		xmlPath, err := s.safeJoin(uri)
		if err != nil {
			return Fingerprint{}, false, err
		}
		if st, err := os.Stat(xmlPath); err == nil {
			return fingerprintOf(xmlPath, st), false, nil
		}
		searched += ", file " + xmlPath
	}
	return Fingerprint{}, false, xdm.NotFoundf("doc(%q): not in store (searched %s)", uri, searched)
}

func fingerprintOf(path string, st os.FileInfo) Fingerprint {
	return Fingerprint{Path: path, Size: st.Size(), MTime: st.ModTime().UnixNano()}
}

// fingerprint identifies the file that would serve uri without reading
// it. The cache calls it to validate hits, so a snapshot or XML file
// replaced on disk stops being served from memory.
func (s *Store) fingerprint(uri string) (Fingerprint, error) {
	fp, _, err := s.locate(uri)
	return fp, err
}

// load is the cache loader: it opens whatever locate finds.
func (s *Store) load(uri string) (*xdm.Document, error) {
	fp, snapshot, err := s.locate(uri)
	if err != nil {
		return nil, err
	}
	if !snapshot {
		return parseXMLFile(fp.Path, uri)
	}
	var d *xdm.Document
	if s.opts.Mmap {
		d, err = LoadMmap(fp.Path)
	} else {
		d, err = Load(fp.Path)
	}
	if err != nil {
		// A present-but-unreadable snapshot is a hard error: falling
		// back to the XML would mask corruption.
		return nil, xdm.Errorf(xdm.ErrDoc, "doc(%q): %v", uri, err)
	}
	return d, nil
}

func parseXMLFile(path, uri string) (*xdm.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, xdm.Errorf(xdm.ErrDoc, "doc(%q): %v", uri, err)
	}
	defer f.Close()
	return xmldoc.Parse(f, uri)
}
