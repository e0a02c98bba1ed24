package main

import (
	"testing"

	"eden"
	"eden/internal/conform"
)

// TestReadConformance invokes the prototype's read operations from
// another node and holds each reply to a local call's.
func TestReadConformance(t *testing.T) {
	create := func(typeName string) func(home, _ *eden.Node) (eden.Capability, error) {
		return func(home, _ *eden.Node) (eden.Capability, error) { return home.CreateObject(typeName) }
	}
	conform.Reads(t, registerPrototypeTypes, []conform.Row{
		{Type: "stored-object", Op: "describe", Setup: create("stored-object")},
		{Type: "mailbox", Op: "read", Setup: create("mailbox")},
	})
}

// TestWriteConformance invokes the prototype's write from another node
// on one object and locally on its twin, and holds the replies and the
// two objects' states to each other's.
func TestWriteConformance(t *testing.T) {
	conform.Writes(t, registerPrototypeTypes, []conform.Row{
		{Type: "mailbox", Op: "deliver", Setup: func(home, _ *eden.Node) (eden.Capability, error) {
			return home.CreateObject("mailbox")
		}, Requests: [][]byte{[]byte("a letter")}},
	})
}
