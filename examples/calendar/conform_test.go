package main

import (
	"encoding/binary"
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

// TestWriteConformance invokes the calendar's writes from another node
// on one calendar and locally on its twin, and holds the replies and the
// two calendars' bookings to each other's.
func TestWriteConformance(t *testing.T) {
	calendar := func(home, client *eden.Node) (eden.Capability, error) {
		cal, err := home.CreateObject(calendarType)
		if err == nil {
			err = book(client, cal, 9, "standup")
		}
		return cal, err
	}
	conform.Writes(t, func(s *eden.System) error { return s.RegisterType(calendarManager(nil)) }, []conform.Row{
		{Type: calendarType, Op: "book", Setup: calendar,
			Requests: [][]byte{slot(14, "design review"), slot(9, "clash"), slot(30, "late"), []byte("x")}},
		{Type: calendarType, Op: "cancel", Setup: calendar,
			Requests: [][]byte{slot(9, ""), slot(3, ""), []byte("x")}},
	})
}

// slot is a booking request: slot(2) | holder.
func slot(n uint16, holder string) []byte {
	return append(binary.BigEndian.AppendUint16(nil, n), holder...)
}
