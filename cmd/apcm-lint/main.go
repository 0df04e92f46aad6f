// Command apcm-lint runs the repo's go/analysis suite (internal/lint):
// hotpathalloc, scratchrelease, atomicfield, metricname, lockorder,
// goroutinelife, fsyncorder, atomicpublish.
//
// It is dual-mode:
//
//   - Invoked by the go command (`go vet -vettool=/path/to/apcm-lint`),
//     it speaks the unitchecker protocol — the go command hands it one
//     package at a time with pre-computed export data, so no network or
//     go/packages dependency is needed.
//
//   - Invoked directly (`apcm-lint ./...` or `go run ./cmd/apcm-lint
//     ./...`), it re-execs itself through `go vet -vettool=<self> -json`,
//     parses the per-package JSON diagnostics, filters them against the
//     checked-in baseline, and decides the exit code itself: nonzero iff
//     any non-baselined finding remains.
//
// The baseline (default .apcm-lint-baseline in the working directory)
// holds one finding per line as analyzer<TAB>file<TAB>message — line
// numbers are deliberately absent so unrelated edits do not invalidate
// entries. Regenerate it deliberately with -write-baseline (make
// lint-baseline); CI never does. Every baseline entry must carry a
// justification in DESIGN.md §7.
//
// Flags: -json (normalized machine-readable findings on stdout, for the
// CI artifact), -tags (build tags, forwarded to go vet — used by the
// seeded-violation smoke test), -baseline (alternate baseline path),
// -write-baseline (rewrite the baseline from current findings), -list
// (print the suite's analyzer names, one a line, and exit — the smoke
// test checks each of them fires).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"github.com/streammatch/apcm/internal/lint"
)

const defaultBaseline = ".apcm-lint-baseline"

func main() {
	if invokedByGoVet(os.Args[1:]) {
		unitchecker.Main(lint.Analyzers()...)
		return
	}
	os.Exit(standalone(os.Args[1:]))
}

// invokedByGoVet detects the unitchecker protocol: the go command
// probes the tool with -V=full and -flags, then invokes it with a
// single *.cfg argument per package.
func invokedByGoVet(args []string) bool {
	for _, a := range args {
		if a == "-V=full" || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}

// finding is one diagnostic, normalized: pos is file:line:col with the
// file relative to the working directory when possible.
type finding struct {
	Analyzer  string `json:"analyzer"`
	Pos       string `json:"pos"`
	File      string `json:"file"`
	Message   string `json:"message"`
	Baselined bool   `json:"baselined"`
}

// baselineKey is the line-number-insensitive identity used for
// baseline matching.
func (f finding) baselineKey() string {
	return f.Analyzer + "\t" + f.File + "\t" + f.Message
}

func standalone(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "apcm-lint: cannot locate own binary: %v\n", err)
		return 2
	}
	var (
		jsonOut       bool
		writeBaseline bool
		baselinePath  = defaultBaseline
		tags          string
		pkgs          []string
	)
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-json" || a == "--json":
			jsonOut = true
		case a == "-write-baseline" || a == "--write-baseline":
			writeBaseline = true
		case a == "-list" || a == "--list":
			for _, an := range lint.Analyzers() {
				fmt.Println(an.Name)
			}
			return 0
		case a == "-baseline" || a == "--baseline":
			if i+1 < len(args) {
				i++
				baselinePath = args[i]
			}
		case strings.HasPrefix(a, "-baseline="), strings.HasPrefix(a, "--baseline="):
			baselinePath = a[strings.Index(a, "=")+1:]
		case a == "-tags" || a == "--tags":
			if i+1 < len(args) {
				i++
				tags = args[i]
			}
		case strings.HasPrefix(a, "-tags="), strings.HasPrefix(a, "--tags="):
			tags = a[strings.Index(a, "=")+1:]
		case a == "-h" || a == "-help" || a == "--help":
			usage()
			return 0
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "apcm-lint: unknown flag %s\n", a)
			usage()
			return 2
		default:
			pkgs = append(pkgs, a)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}

	findings, code := runVet(self, tags, pkgs)
	if code != 0 {
		return code
	}

	if writeBaseline {
		if err := saveBaseline(baselinePath, findings); err != nil {
			fmt.Fprintf(os.Stderr, "apcm-lint: writing baseline: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "apcm-lint: wrote %d baseline entries to %s\n", len(findings), baselinePath)
		return 0
	}

	baseline := loadBaseline(baselinePath)
	fresh := 0
	for i := range findings {
		if baseline[findings[i].baselineKey()] {
			findings[i].Baselined = true
		} else {
			fresh++
		}
	}

	if jsonOut {
		out := struct {
			Tool     string    `json:"tool"`
			Version  int       `json:"version"`
			Total    int       `json:"total"`
			Fresh    int       `json:"fresh"`
			Findings []finding `json:"findings"`
		}{"apcm-lint", 1, len(findings), fresh, findings}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "apcm-lint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			if f.Baselined {
				continue
			}
			fmt.Printf("%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
		}
		if fresh > 0 && len(findings) > fresh {
			fmt.Fprintf(os.Stderr, "apcm-lint: %d findings (%d baselined)\n", len(findings), len(findings)-fresh)
		}
	}
	if fresh > 0 {
		return 1
	}
	return 0
}

// runVet executes go vet -vettool=self -json and parses the per-package
// diagnostics from stderr. A non-JSON failure (build error, bad
// pattern) is passed through verbatim with exit 2.
func runVet(self, tags string, pkgs []string) ([]finding, int) {
	vetArgs := []string{"vet", "-vettool=" + self, "-json"}
	if tags != "" {
		vetArgs = append(vetArgs, "-tags", tags)
	}
	cmd := exec.Command("go", append(vetArgs, pkgs...)...)
	var stderr bytes.Buffer
	cmd.Stdout = os.Stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run()

	findings, perr := parseVetJSON(stderr.Bytes())
	if perr != nil || runErr != nil {
		// go vet -json exits 0 even with findings, so any failure means
		// the run itself broke: surface its output unfiltered.
		os.Stderr.Write(stderr.Bytes())
		if perr != nil {
			fmt.Fprintf(os.Stderr, "apcm-lint: parsing go vet output: %v\n", perr)
		}
		return nil, 2
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos != findings[j].Pos {
			return findings[i].Pos < findings[j].Pos
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, 0
}

// vetDiag is one diagnostic in go vet's own JSON shape.
type vetDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// parseVetJSON decodes go vet -json stderr: `# pkgpath` comment lines
// interleaved with {"pkgpath": {"analyzer": [diag...]}} objects.
func parseVetJSON(raw []byte) ([]finding, error) {
	var jsonLines []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		jsonLines = append(jsonLines, line)
	}
	cwd, _ := os.Getwd()
	var findings []finding
	dec := json.NewDecoder(strings.NewReader(strings.Join(jsonLines, "\n")))
	for dec.More() {
		var pkgs map[string]map[string][]vetDiag
		if err := dec.Decode(&pkgs); err != nil {
			return nil, err
		}
		for _, analyzers := range pkgs {
			for analyzer, diags := range analyzers {
				for _, d := range diags {
					pos, file := relativizePos(cwd, d.Posn)
					findings = append(findings, finding{
						Analyzer: analyzer,
						Pos:      pos,
						File:     file,
						Message:  d.Message,
					})
				}
			}
		}
	}
	return findings, nil
}

// relativizePos rewrites an absolute file:line:col position relative to
// dir and also returns the bare file path (the baseline key component).
func relativizePos(dir, posn string) (pos, file string) {
	file = posn
	rest := ""
	// Split off :line:col from the right; windows drive letters are not
	// a concern for this repo's CI.
	if i := strings.Index(posn, ":"); i >= 0 {
		file, rest = posn[:i], posn[i:]
	}
	if dir != "" {
		if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return file + rest, file
}

// loadBaseline reads the baseline file: one analyzer<TAB>file<TAB>message
// key per line, '#' comments and blank lines skipped. A missing file is
// an empty baseline.
func loadBaseline(path string) map[string]bool {
	out := make(map[string]bool)
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[line] = true
	}
	return out
}

// saveBaseline writes the current findings as a fresh baseline, sorted
// and deduplicated.
func saveBaseline(path string, findings []finding) error {
	keys := make([]string, 0, len(findings))
	seen := make(map[string]bool)
	for _, f := range findings {
		k := f.baselineKey()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# apcm-lint baseline: analyzer<TAB>file<TAB>message, line numbers omitted.\n")
	b.WriteString("# Regenerate deliberately with `make lint-baseline`; every entry must be\n")
	b.WriteString("# justified in DESIGN.md §7. CI fails on any finding not listed here.\n")
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString("\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: apcm-lint [-json] [-tags taglist] [-baseline file] [-write-baseline] [packages]
       apcm-lint -list

Runs the apcm analyzer suite over the given packages (default ./...).
Findings matching the baseline file (default `+defaultBaseline+`) are
reported but do not affect the exit status; exit is nonzero iff any
non-baselined finding remains. -write-baseline rewrites the baseline
from the current findings. -list prints the analyzer names. Also usable
as a vettool:
go vet -vettool=$(command -v apcm-lint) ./...
`)
}
