package fame

import (
	"context"
	"fmt"

	"multival/internal/lts"
	"multival/internal/process"
)

// Functional model of the MPI software layer (the paper's "MPI software
// layer and MPI benchmark applications to be run over FAME2 mainframes"):
// a sender and a receiver communicating through a mailbox in coherent
// shared memory — a data buffer plus a synchronization flag. The sender
// writes the buffer and raises the flag; the receiver polls the flag,
// reads the buffer, and clears the flag. The model verifies the
// synchronization discipline: no message is lost or read before it is
// complete, and the protocol never deadlocks.
//
// Memory cells are modeled as processes synchronizing on read/write
// gates, so the composition exercises exactly the structural
// (bottom-up) modeling style the paper describes.

// MPIFunctionalModel builds the LTS of one-directional MPI transfers over
// a flag-synchronized mailbox, for `values` distinct payloads. Visible
// gates:
//
//	send !v   the sender's MPI_Send of payload v completes
//	recv !v   the receiver's MPI_Recv delivers payload v
//
// Buffer/flag accesses are internal (hidden). Generation observes ctx.
func MPIFunctionalModel(ctx context.Context, values int) (*lts.LTS, error) {
	sys, err := MPIFunctionalSystem(values)
	if err != nil {
		return nil, err
	}
	l, err := sys.GenerateCtx(ctx, process.GenOptions{MaxStates: 1 << 18})
	if err != nil {
		return nil, err
	}
	trimmed, _ := l.Trim()
	trimmed.SetName("mpi-functional")
	return trimmed, nil
}

// MPIFunctionalSystem builds the process system MPIFunctionalModel
// generates: sender and receiver over the buffer and flag cells, with
// the memory gates hidden.
func MPIFunctionalSystem(values int) (*process.System, error) {
	if values < 1 || values > 3 {
		return nil, fmt.Errorf("fame: values %d out of 1..3", values)
	}
	sys := process.NewSystem("mpi-functional")
	v := values - 1

	// Memory cell processes: a data buffer and a flag, each a register
	// with read (emits current value) and write (accepts new value).
	cell := func(name string, lo, hi int) {
		sys.Define("Cell_"+name, []string{"val"}, process.Alt(
			process.Act(name+"_rd", []process.Offer{process.Send(process.V("val"))},
				process.Call{Proc: "Cell_" + name, Args: []process.Expr{process.V("val")}}),
			process.Act(name+"_wr", []process.Offer{process.Recv("nv", lo, hi)},
				process.Call{Proc: "Cell_" + name, Args: []process.Expr{process.V("nv")}}),
		))
	}
	cell("buf", 0, v)
	cell("flag", 0, 1)

	// Sender: wait for the flag to be clear (the previous message was
	// consumed), announce the send (the application's MPI_Send call),
	// write the payload, raise the flag. The visible "send" precedes
	// the memory traffic so causality send-before-recv is observable.
	sys.Define("Sender", []string{"n"},
		process.Act("flag_rd", []process.Offer{process.Recv("f", 0, 1)},
			process.Alt(
				process.Guard{Cond: process.Eq(process.V("f"), process.Int(1)),
					B: process.Call{Proc: "Sender", Args: []process.Expr{process.V("n")}}},
				process.Guard{Cond: process.Eq(process.V("f"), process.Int(0)),
					B: process.Act("send", []process.Offer{process.Send(process.V("n"))},
						process.Act("buf_wr", []process.Offer{process.Send(process.V("n"))},
							process.Act("flag_wr", []process.Offer{process.SendInt(1)},
								process.Call{Proc: "Sender", Args: []process.Expr{
									process.Mod(process.Add(process.V("n"), process.Int(1)), process.Int(values)),
								}})))},
			)))

	// Receiver: poll the flag; when raised, read the buffer, deliver,
	// and clear the flag.
	sys.Define("Receiver", nil,
		process.Act("flag_rd", []process.Offer{process.Recv("f", 0, 1)},
			process.Alt(
				process.Guard{Cond: process.Eq(process.V("f"), process.Int(0)),
					B: process.Call{Proc: "Receiver"}},
				process.Guard{Cond: process.Eq(process.V("f"), process.Int(1)),
					B: process.Act("buf_rd", []process.Offer{process.Recv("x", 0, v)},
						process.Act("recv", []process.Offer{process.Send(process.V("x"))},
							process.Act("flag_wr", []process.Offer{process.SendInt(0)},
								process.Call{Proc: "Receiver"})))},
			)))

	memGates := []string{"buf_rd", "buf_wr", "flag_rd", "flag_wr"}
	cells := process.Interleave(
		process.Call{Proc: "Cell_buf", Args: []process.Expr{process.Int(0)}},
		process.Call{Proc: "Cell_flag", Args: []process.Expr{process.Int(0)}},
	)
	users := process.Interleave(
		process.Call{Proc: "Sender", Args: []process.Expr{process.Int(0)}},
		process.Call{Proc: "Receiver"},
	)
	root := process.HideIn(memGates, process.SyncPar(memGates, users, cells))
	sys.SetRoot(root)
	return sys, nil
}
