package main

import (
	"testing"

	"eden"
	"eden/internal/conform"
)

// TestReadConformance invokes the spooler's read operation from another
// node and holds each reply to a local call's. No printer is attached,
// so the submitted jobs stay queued.
func TestReadConformance(t *testing.T) {
	conform.Reads(t, func(s *eden.System) error { return s.RegisterType(spoolerManager()) }, []conform.Row{
		{Type: spoolerType, Op: "pending", Setup: func(home, client *eden.Node) (eden.Capability, error) {
			spooler, err := home.CreateObject(spoolerType)
			for _, job := range []string{"first job", "second job"} {
				if err == nil {
					_, err = client.Invoke(spooler, "submit", []byte(job), nil, opts())
				}
			}
			return spooler, err
		}},
	})
}

// TestWriteConformance invokes the spooler's writes from another node on
// one spooler and locally on its twin, and holds the replies and the two
// spoolers' queues to each other's. The printer attached is another
// spooler: with no job queued, nothing is sent to it.
func TestWriteConformance(t *testing.T) {
	spooler := func(home, _ *eden.Node) (eden.Capability, error) { return home.CreateObject(spoolerType) }
	conform.Writes(t, func(s *eden.System) error { return s.RegisterType(spoolerManager()) }, []conform.Row{
		{Type: spoolerType, Op: "attach-printer", Setup: spooler, Caps: func(home *eden.Node) (eden.CapabilityList, error) {
			printer, err := home.CreateObject(spoolerType)
			return eden.CapabilityList{printer}, err
		}},
		{Type: spoolerType, Op: "submit", Setup: spooler,
			Requests: [][]byte{[]byte("first job"), []byte("second job")}},
	})
}
