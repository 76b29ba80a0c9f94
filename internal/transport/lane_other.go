//go:build !linux

package transport

import "net"

// The same-host lane needs abstract unix sockets, SO_PEERCRED and sealed
// memfds; elsewhere no listener offers it and every dial is TCP.

func listenLane(net.Addr) net.Listener { return nil }

func dialLane(string, *Metrics) Conn { return nil }

func upgradeLane(c net.Conn, _ bool, _ *Metrics) Conn {
	c.Close()
	return nil
}
