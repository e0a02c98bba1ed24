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
