package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// artifactPath is the pinned stdout of `pocbench -exp all` at the
// default flags. Regenerate it, after a change meant to move its
// numbers, from the repository root with
//
//	go run ./cmd/pocbench -exp all > testdata/experiments_v1.txt
const artifactPath = "../../testdata/experiments_v1.txt"

// TestArtifact regenerates every experiment in-process and diffs each
// section against the pinned artifact, naming each line that moved.
// Under -short the auction sections (seconds each) are skipped.
func TestArtifact(t *testing.T) {
	data, err := os.ReadFile(artifactPath)
	if err != nil {
		t.Fatal(err)
	}
	names, pinned := splitSections(string(data))
	exps := experiments(defaultScale, defaultChecks)
	var want []string
	for _, e := range exps {
		want = append(want, e.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("artifact sections %v, experiments %v", names, want)
	}
	for _, e := range exps {
		t.Run(e.name, func(t *testing.T) {
			if e.auction && testing.Short() {
				t.Skip("auction experiment skipped in -short mode")
			}
			var buf bytes.Buffer
			if err := e.write(&buf); err != nil {
				t.Fatal(err)
			}
			if d := lineDiff(pinned[e.name], buf.String()); d != "" {
				t.Errorf("section %q differs from %s:\n%s", e.name, artifactPath, d)
			}
		})
	}
}

// splitSections cuts an artifact at its "==== <exp> ====" headers and
// returns the section names in order and each section's full text,
// header included.
func splitSections(s string) ([]string, map[string]string) {
	var names []string
	text := map[string]string{}
	for len(s) > 0 {
		end := strings.Index(s[1:], "\n==== ")
		if end < 0 {
			end = len(s)
		} else {
			end += 2
		}
		sec := s[:end]
		header, _, _ := strings.Cut(sec, "\n")
		name := strings.TrimSuffix(strings.TrimPrefix(header, "==== "), " ====")
		names = append(names, name)
		text[name] = sec
		s = s[end:]
	}
	return names, text
}

// lineDiff lists the lines where got differs from want, one
// "line N: want … / got …" pair each, or returns "" when they match.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || i >= len(wl) || i >= len(gl) {
			fmt.Fprintf(&b, "  line %d:\n    want %q\n    got  %q\n", i+1, w, g)
		}
	}
	return b.String()
}
