package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// onlyRef matches an -only value inside one backticked span, such as
// `-only fig9` or `go run ./cmd/experiments -only cxl`.
var onlyRef = regexp.MustCompile("`[^`\n]*-only ([^`\\s]+)[^`\n]*`")

// TestDocsCiteListedExperiments checks that every `-only <name>` the
// user-facing docs cite names an entry of the experiments table, so a
// deleted or renamed experiment cannot stay documented.
func TestDocsCiteListedExperiments(t *testing.T) {
	cited := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range onlyRef.FindAllSubmatch(data, -1) {
			cited++
			if name := string(m[1]); !isExperiment(name) {
				t.Errorf("%s cites `-only %s`, which is not an experiment (valid: %s)", doc, name, experimentNames())
			}
		}
	}
	if cited == 0 {
		t.Fatal("no `-only <name>` found in the docs; the pattern no longer matches how they cite experiments")
	}
}
