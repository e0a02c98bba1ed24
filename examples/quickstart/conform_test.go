package main

import (
	"testing"

	"eden"
	"eden/internal/conform"
)

// TestReadConformance invokes the counter's read operation from another
// node and holds each reply to a local call's.
func TestReadConformance(t *testing.T) {
	conform.Reads(t, func(s *eden.System) error { return s.RegisterType(counterType()) }, []conform.Row{
		{Type: "counter", Op: "get", Setup: func(home, client *eden.Node) (eden.Capability, error) {
			c, err := home.CreateObject("counter")
			if err == nil {
				_, err = client.Invoke(c, "inc", nil, nil, opts())
			}
			return c, err
		}},
	})
}

// TestWriteConformance invokes the counter's writes from another node on
// one counter and locally on its twin, and holds the replies and the two
// counts to each other's.
func TestWriteConformance(t *testing.T) {
	counter := func(home, client *eden.Node) (eden.Capability, error) {
		c, err := home.CreateObject("counter")
		if err == nil {
			_, err = client.Invoke(c, "inc", nil, nil, opts())
		}
		return c, err
	}
	conform.Writes(t, func(s *eden.System) error { return s.RegisterType(counterType()) }, []conform.Row{
		{Type: "counter", Op: "inc", Setup: counter},
		{Type: "counter", Op: "reset", Setup: counter},
	})
}
