package session

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/arrow-te/arrow/internal/attr"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
)

// SchemaVersion identifies the run-bundle layout. Bump it whenever a section
// is renamed, removed, or changes meaning (adding a section is compatible).
const SchemaVersion = 1

// Bundle is the one file a run leaves (-run-out). Each section is present
// only where the CLI records it: every bundle carries its metrics, the
// ledger comes from the CLIs that record one, the stage profile and the
// attribution report from arrow-report -run (the latter under -attr).
type Bundle struct {
	SchemaVersion int               `json:"schema_version"`
	Metrics       *obs.Snapshot     `json:"metrics"`
	Ledger        *ledger.Snapshot  `json:"ledger,omitempty"`
	Stages        *obs.StageProfile `json:"stages,omitempty"`
	Attribution   *attr.Report      `json:"attribution,omitempty"`
}

// Write encodes the bundle as indented JSON, the -run-out file.
func (b *Bundle) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Read parses a bundle written by Write. It refuses a bundle from a newer
// build (the bundle's or its ledger's schema) and any JSON that is not a
// bundle: a bare ledger or metrics snapshot has no metrics section.
func Read(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, err
	}
	switch {
	case b.SchemaVersion > SchemaVersion:
		return nil, fmt.Errorf("run bundle schema v%d is newer than this build (v%d)", b.SchemaVersion, SchemaVersion)
	case b.Metrics == nil:
		return nil, fmt.Errorf("not a run bundle (no metrics section)")
	case b.Ledger != nil && b.Ledger.SchemaVersion > ledger.SchemaVersion:
		return nil, fmt.Errorf("ledger schema v%d is newer than this build (v%d)", b.Ledger.SchemaVersion, ledger.SchemaVersion)
	}
	return &b, nil
}

// ReadFile reads the bundle at path (see Read).
func ReadFile(path string) (*Bundle, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	b, err := Read(fd)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}
