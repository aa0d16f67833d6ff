package finbench

import (
	"context"
	"fmt"

	"finbench/internal/binomial"
	"finbench/internal/blackscholes"
	"finbench/internal/cranknicolson"
	"finbench/internal/montecarlo"
	"finbench/internal/vec"
	"finbench/internal/workload"
)

// Cancellable entry points. PriceCtx and PriceBatchCtx are the single
// implementation behind Price and PriceBatch, which call them with
// context.Background(). The context's done signal reaches the kernel loops
// (Monte Carlo path chunks, Crank-Nicolson time steps, lattice level
// blocks, closed-form option blocks), so a pricing request whose deadline
// has passed stops consuming CPU within a bounded amount of work instead
// of running to completion. A context that carries no cancellation signal
// (context.Background, context.TODO) skips every checkpoint.
//
// Cancellation never changes decomposition, iteration order, or
// arithmetic: the kernels check a done channel between work blocks, so an
// uncancelled run is bit-identical whatever the context. On a non-nil
// error any outputs are partial and must be discarded.

// PriceCtx is Price with cancellation. It returns ctx.Err() (wrapped) if
// the context is cancelled before or during pricing.
func PriceCtx(ctx context.Context, o Option, m Market, method Method, cfg *Config) (Result, error) {
	if o.Spot <= 0 || o.Strike <= 0 || o.Expiry <= 0 || m.Volatility <= 0 {
		return Result{}, ErrInvalidOption
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	c := cfg.withDefaults()
	mkt := m.internal()
	americanPut := o.Style == American && o.Type == Put
	var (
		price, stdErr float64
		err           error
	)
	// An American call on a non-dividend asset is never exercised early,
	// so the lattice and finite-difference methods price it as the
	// European call.
	switch method {
	case ClosedForm:
		if o.Style == American {
			return Result{}, fmt.Errorf("%w: closed form is European-only", ErrMethodStyle)
		}
		// A single closed-form evaluation is microseconds of work; the
		// upfront ctx check above is the only checkpoint it needs.
		call, put := blackscholes.PriceScalar(o.Spot, o.Strike, o.Expiry, mkt)
		price = pick(o.Type, call, put)

	case BinomialTree:
		if americanPut {
			price, err = binomial.PriceAmericanPutScalarCtx(ctx, o.Spot, o.Strike, o.Expiry, c.BinomialSteps, mkt)
			break
		}
		price, err = binomial.PriceScalarCtx(ctx, o.Spot, o.Strike, o.Expiry, c.BinomialSteps, mkt)
		if o.Type == Put {
			// European put from the tree call via parity.
			price = price - o.Spot + o.Strike*discount(m, o.Expiry)
		}

	case FiniteDifference:
		if americanPut {
			price, err = cranknicolson.PriceAmericanPutCtx(ctx, o.Spot, o.Strike, o.Expiry, c.GridPoints, c.TimeSteps, mkt)
			break
		}
		// The lattice's European put, plus parity for the call.
		price, err = cranknicolson.PriceEuropeanPutCtx(ctx, o.Spot, o.Strike, o.Expiry, c.GridPoints, c.TimeSteps, mkt)
		if o.Type == Call {
			price = price + o.Spot - o.Strike*discount(m, o.Expiry)
		}

	case TrinomialTree:
		if americanPut {
			price, err = binomial.PriceAmericanPutTrinomialCtx(ctx, o.Spot, o.Strike, o.Expiry, c.BinomialSteps, mkt)
			break
		}
		price, err = binomial.PriceTrinomialCtx(ctx, o.Spot, o.Strike, o.Expiry, c.BinomialSteps, mkt)
		if o.Type == Put {
			price = price - o.Spot + o.Strike*discount(m, o.Expiry)
		}

	case MonteCarlo:
		if o.Style == American {
			return Result{}, fmt.Errorf("%w: Monte Carlo engine is European-only", ErrMethodStyle)
		}
		b := &workload.MCBatch{
			S: []float64{o.Spot}, X: []float64{o.Strike}, T: []float64{o.Expiry},
			Price: make([]float64, 1), StdErr: make([]float64, 1),
		}
		err = montecarlo.VectorizedComputeRNGCtx(ctx, b, c.MCPaths, c.Seed, mkt, 8, 2, nil)
		price, stdErr = b.Price[0], b.StdErr[0]
		if o.Type == Put {
			price = price - o.Spot + o.Strike*discount(m, o.Expiry)
		}

	default:
		return Result{}, fmt.Errorf("finbench: unknown method %v", method)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{Price: price, StdErr: stdErr, Method: method}, nil
}

// PriceBatchCtx is PriceBatch with cancellation checked between option
// blocks inside the kernels. On a non-nil error the batch outputs are
// partial and must be discarded.
func PriceBatchCtx(ctx context.Context, b *Batch, m Market, level OptLevel) error {
	if b.Len() == 0 {
		return ctx.Err()
	}
	return priceBatch(ctx, b, m, level, vec.MaxWidth, nil)
}
