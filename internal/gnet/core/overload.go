package core

import (
	"ddpolice/internal/capacity"
	"ddpolice/internal/journal"
)

// overloadState is the overload plane's admission side: the class-split
// processing budget and the window's shed count.
type overloadState struct {
	cproc   *capacity.ClassedProcessor
	windows int

	// winShed counts the window's dropped queries: capacity drops and
	// send-queue sheds.
	winShed int64
}

func (o *overloadState) init(cfg Config) error {
	cproc, err := capacity.NewClassedProcessor(cfg.CapacityPerMin, cfg.ControlReserveFrac)
	if err != nil {
		return err
	}
	o.cproc = cproc
	return nil
}

// closeOverloadWindow counts the window and journals what it shed.
func (c *Core) closeOverloadWindow() {
	o := &c.ovl
	o.windows++
	if o.winShed > 0 {
		c.journal(journal.Event{
			Type: journal.TypeShed, Detail: journal.ShedQuery,
			Value: float64(o.winShed), Window: o.windows,
		})
		o.winShed = 0
	}
}
