// Package store is a persistent, content-addressed result store: a
// directory of JSON records addressed by canonical run keys (package
// runkey). It is the disk tier behind both the experiment planner
// (full results, so warm `make experiments` re-runs simulate nothing)
// and the service result cache (run summaries, so a restarted server
// keeps its history).
//
// The store is deliberately dumb and safe rather than clever:
//
//   - Entries are immutable. A key fully determines its content
//     (seeded runs are deterministic), so there is no invalidation —
//     only versioning: records live under <dir>/<schema>/<revision>/,
//     where schema names the record type ("result-v2", "summary-v1")
//     and revision is the builder's VCS revision (buildinfo). A new
//     binary writes a fresh namespace and old entries simply go cold.
//   - Writes are atomic: a record is written to an O_EXCL temp file in
//     the same directory and renamed into place, so concurrent writers
//     race harmlessly (both write identical bytes; last rename wins)
//     and readers never observe a torn record.
//   - Reads are corruption-tolerant: any unreadable, truncated, or
//     mismatched entry is treated as a miss (and best-effort deleted),
//     never an error. Losing a cache entry costs a recompute; trusting
//     a bad one would corrupt a published table.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// envelope wraps a record on disk. Echoing the key and schema inside
// the record lets Load reject entries that were truncated, renamed, or
// copied across namespaces.
type envelope struct {
	Schema string          `json:"schema"`
	Key    string          `json:"key"`
	Data   json.RawMessage `json:"data"`
}

// Store is one (schema, revision) namespace of a store directory.
// Methods are safe for concurrent use by multiple goroutines and
// cooperating processes.
type Store struct {
	dir    string // namespace directory (includes schema/revision)
	schema string

	hits   atomic.Int64
	misses atomic.Int64
	writes atomic.Int64
}

// DefaultDir returns the user-level store root (~/.cache/mopac or the
// platform equivalent).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("store: no user cache dir: %w", err)
	}
	return filepath.Join(base, "mopac"), nil
}

// sanitize keeps namespace path elements to a conservative charset;
// anything else (an empty revision, a "+dirty" suffix, path
// separators) maps to safe characters.
func sanitize(s, fallback string) string {
	if s == "" {
		return fallback
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Open opens (creating if needed) the namespace for one record schema
// and builder revision under dir. An empty revision (builds outside
// version control, `go run`/`go test` builds) falls back to "dev":
// still persistent and correct — keys are content-addressed — just
// without automatic invalidation across source changes that do not
// change the config encoding.
func Open(dir, schema, revision string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if schema == "" {
		return nil, errors.New("store: empty schema")
	}
	ns := filepath.Join(dir, sanitize(schema, "schema"), sanitize(revision, "dev"))
	if err := os.MkdirAll(ns, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: ns, schema: schema}, nil
}

// Dir returns the namespace directory entries are written to.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, sanitize(key, "k")+".json")
}

// Load returns the record stored under key. A missing, unreadable, or
// corrupt entry returns ok=false; corrupt entries are best-effort
// removed so the follow-up Save replaces them.
func (s *Store) Load(key string) ([]byte, bool) {
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Schema != s.schema || env.Key != key ||
		len(env.Data) == 0 || string(env.Data) == "null" {
		// Truncated write, bit rot, or a foreign record under our name:
		// recompute rather than trust it.
		_ = os.Remove(s.path(key))
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return env.Data, true
}

// Save persists data under key atomically. Concurrent saves of the
// same key are safe: deterministic runs make the payloads identical,
// and rename is atomic within a directory.
func (s *Store) Save(key string, data []byte) error {
	raw, err := json.Marshal(envelope{Schema: s.schema, Key: key, Data: data})
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close %s: %w", key, err)
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: publish %s: %w", key, err)
	}
	s.writes.Add(1)
	return nil
}

// Len counts the records currently in the namespace (a directory scan;
// intended for tests and diagnostics, not hot paths).
func (s *Store) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") && !strings.HasPrefix(e.Name(), ".tmp-") {
			n++
		}
	}
	return n
}

// Hits returns the number of successful loads.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns the number of failed loads.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Writes returns the number of records persisted.
func (s *Store) Writes() int64 { return s.writes.Load() }
