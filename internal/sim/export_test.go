package sim

// DisableSpin makes Task.Spin decline on e, for the external Spin
// equivalence tests.
func DisableSpin(e *Engine) { e.noSpin = true }

// FlightLog returns e's flight-recorder ring, oldest first.
func FlightLog(e *Engine) []FlightEvent { return e.fr.snapshot(e.tasks) }
