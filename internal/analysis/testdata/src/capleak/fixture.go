// Package capleak exercises the capleak analyzer: raw edenid names in
// exported API fire; unexported or capability-shaped API does not, and a
// method that implements an interface is judged once, at the interface.
package capleak

import "eden/internal/edenid"

// Locate returns where the object named id lives.
func Locate(id edenid.ID) uint32 { return 0 } // want "leaks raw object name"

// Record pairs an object with its placement.
type Record struct {
	Object edenid.ID // want "leaks raw object name"
	Node   uint32
}

// locate is unexported, so it is not reachable API and does not fire.
func locate(id edenid.ID) uint32 { _ = id; return 0 }

// Placement exposes only opaque data and does not fire.
type Placement struct {
	Key  string
	Node uint32
}

// Directory is judged and suppressed at its declaration.
//
//edenvet:ignore capleak fixture: a suppressed interface covers the methods that implement it
type Directory interface {
	Lookup(id edenid.ID) uint32
}

// Table implements Directory.
type Table struct{}

// Lookup implements Directory, so it is judged there: not reported.
func (t *Table) Lookup(id edenid.ID) uint32 { return 0 }

// Finder is judged at its declaration and reported there.
type Finder interface {
	Find(id edenid.ID) bool // want "leaks raw object name"
}

// Finders implements Finder.
type Finders struct{}

// Find implements Finder, whose finding is not repeated here.
func (Finders) Find(id edenid.ID) bool { return false }

// Index has a Lookup of its own signature, so implements no Directory.
type Index struct{}

// Lookup shares only a name with Directory.Lookup and is reported.
func (x *Index) Lookup(id edenid.ID, hint int) uint32 { return 0 } // want "leaks raw object name"

// table is unexported: its methods are not reachable API, whether or not
// they implement an interface.
type table struct{}

func (t *table) Lookup(id edenid.ID) uint32          { return 0 }
func (t *table) Probe(id edenid.ID, hint int) uint32 { return 0 }
