package main

import (
	"testing"

	"eden"
	"eden/internal/conform"
)

// TestReadConformance invokes the calendar's read operation from
// another node and holds each reply to a local call's.
func TestReadConformance(t *testing.T) {
	conform.Reads(t, func(s *eden.System) error { return s.RegisterType(calendarManager(nil)) }, []conform.Row{
		{Type: calendarType, Op: "agenda", Setup: func(home, client *eden.Node) (eden.Capability, error) {
			cal, err := home.CreateObject(calendarType)
			if err == nil {
				err = book(client, cal, 9, "standup")
			}
			if err == nil {
				err = book(client, cal, 14, "design review")
			}
			return cal, err
		}},
	})
}
