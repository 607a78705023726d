// Package exportcheck is the root facade of a fixture module for the
// exported-name detector.
package exportcheck

import "example.com/exportcheck/internal/lib"

// Kind re-exports a type a program uses.
type Kind = lib.Kind

// Used is called by cmd/run.
func Used() int { return lib.Counted() }

// Unused has no caller.
func Unused() {}
