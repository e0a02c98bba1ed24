// Package capleak exercises the capleak analyzer: an exported entry
// point that turns a raw edenid name into an object handle fires; a name
// that is only reported, or unexported API, does not.
package capleak

import (
	"eden/internal/capability"
	"eden/internal/edenid"
)

// Object is a handle that can act on an object.
type Object struct{ id edenid.ID }

// ID reports the object's name: a returned name grants nothing.
func (o *Object) ID() edenid.ID { return o.id }

// Open hands back a handle for a bare name.
func Open(id edenid.ID) (*Object, error) { return &Object{id}, nil } // want "turns raw object name edenid.ID into *capleak.Object"

// Mint confers rights on whoever holds a name.
func Mint(ids []edenid.ID) capability.List { return nil } // want "into capability.List"

// Host resolves names for its callers.
type Host struct{}

// Resolve is a method that hands back a handle for a bare name.
func (h *Host) Resolve(id edenid.ID) *Object { return nil } // want "exported Resolve turns raw object name"

// Opener is an interface whose method hands back a handle for a name.
type Opener interface {
	Open(id edenid.ID) *Object // want "exported Opener.Open turns"
}

// Record carries a name as data; a field is not flagged.
type Record struct {
	Object edenid.ID
	Node   uint32
}

// Report is a snapshot value: it cannot act on the object.
type Report struct{ Version uint64 }

// Describe reports on a named object without handing back a handle.
func Describe(id edenid.ID) (Report, string) { return Report{}, "" }

// Locate returns where a named object lives.
func Locate(id edenid.ID) uint32 { return 0 }

// Name re-exports the raw name type; an alias confers nothing.
type Name = edenid.ID

// open is unexported, so it is not reachable API and does not fire.
func open(id edenid.ID) *Object { return &Object{id} }

// host is unexported: its methods are not reachable API.
type host struct{}

func (h *host) Resolve(id edenid.ID) *Object { return nil }
