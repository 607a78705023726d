package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The resume journal is one directory: a manifest pinning the sweep's
// parameters and grid, plus one file per completed cell. Cell files
// are written atomically (tmp + rename) as each cell finishes, so a
// killed sweep leaves either a complete, digest-verified entry or
// nothing — never a torn one. Resuming replays the journal into the
// result slots and re-runs only the missing cells; because every cell
// is deterministic, the merged report is byte-identical to an
// uninterrupted run.

const stateSchema = "poc-fleet-state/v1"

type stateManifest struct {
	Schema           string `json:"schema"`
	Scale            string `json:"scale"` // hex float
	Epochs           int    `json:"epochs"`
	FailureScenarios int    `json:"failure_scenarios"`
	GridSHA          string `json:"grid_sha"`
}

// stateEntry is one persisted cell: its result row and its exported
// obs ledger, exactly as they will appear in the merged report.
type stateEntry struct {
	Key    string          `json:"key"`
	Result *CellResult     `json:"result"`
	Obs    json.RawMessage `json:"obs"`
}

// gridSHA fingerprints the expanded cell list so a journal can never
// be replayed into a different sweep.
func gridSHA(cells []Cell) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%s\n", c.Key())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cellFile names a cell's journal file. Keys contain characters that
// are hostile to filesystems, so the name is a truncated digest of the
// key; the key itself is verified inside the entry on load.
func cellFile(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:12])+".json")
}

// openState prepares dir for the given sweep: it creates the directory
// and manifest if absent, and errors if an existing manifest pins
// different parameters or a different grid (a stale journal must never
// silently merge into the wrong sweep).
func openState(dir string, cells []Cell, cfg Config) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: state: %w", err)
	}
	want := stateManifest{
		Schema:           stateSchema,
		Scale:            hexFloat(cfg.Scale),
		Epochs:           cfg.Epochs,
		FailureScenarios: cfg.FailureScenarios,
		GridSHA:          gridSHA(cells),
	}
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		blob, err := json.MarshalIndent(&want, "", "  ")
		if err != nil {
			return err
		}
		return atomicWrite(path, append(blob, '\n'))
	}
	if err != nil {
		return fmt.Errorf("fleet: state: %w", err)
	}
	var got stateManifest
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("fleet: state: corrupt manifest %s: %w", path, err)
	}
	if got != want {
		return fmt.Errorf("fleet: state dir %s belongs to a different sweep (manifest %+v, want %+v)", dir, got, want)
	}
	return nil
}

// loadState fills completed cells from the journal. Each entry's key
// must match its slot and its digest must recompute from the persisted
// row and obs document; any mismatch is an error, not a skip — a
// corrupt journal must be deleted deliberately, not papered over.
func loadState(dir string, cells []Cell, results []*CellResult, obsDocs [][]byte) (int, error) {
	loaded := 0
	for i, c := range cells {
		raw, err := os.ReadFile(cellFile(dir, c.Key()))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return loaded, fmt.Errorf("fleet: state: %w", err)
		}
		var e stateEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return loaded, fmt.Errorf("fleet: state: corrupt entry for %s: %w", c.Key(), err)
		}
		if e.Key != c.Key() || e.Result == nil || e.Result.Key != c.Key() {
			return loaded, fmt.Errorf("fleet: state: entry key %q does not match cell %q", e.Key, c.Key())
		}
		digest, err := e.Result.computeDigest(e.Obs)
		if err != nil {
			return loaded, err
		}
		if digest != e.Result.Digest {
			return loaded, fmt.Errorf("fleet: state: digest mismatch for %s (journal corrupt or code drift)", c.Key())
		}
		results[i] = e.Result
		obsDocs[i] = e.Obs
		loaded++
	}
	return loaded, nil
}

// saveCell journals one completed cell atomically.
func saveCell(dir string, res *CellResult, obsDoc []byte) error {
	blob, err := json.Marshal(&stateEntry{Key: res.Key, Result: res, Obs: obsDoc})
	if err != nil {
		return err
	}
	return atomicWrite(cellFile(dir, res.Key), blob)
}

// atomicWrite lands data at path via a same-directory tmp file and
// rename, so readers (and resumed sweeps) never observe a torn file.
// The sync before the rename keeps an OS crash from leaving the name
// on an empty file, which loadState would refuse as corrupt.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
	}
	return err
}
