// instantiate is the one way a plan becomes runnable. Plan nodes are
// immutable and shared — by the plan cache, by EXPLAIN, by every concurrent
// execution — so each execution builds its own tree of running ops, which
// hold only per-execution state and a pointer to their node. Compiled
// expressions resolve `$param` from the execution context, so nothing in a
// node needs re-binding per execution.
package core

// instOpts carries what varies between two instantiations of the same nodes.
type instOpts struct {
	// prof, when non-nil, wraps every running op in a profiledOp and records
	// it under its node (GRAPH.PROFILE).
	prof map[planNode]*profiledOp
}

// instantiate builds the running ops for the plan tree rooted at n.
func instantiate(n planNode, opts instOpts) operation {
	op := opts.open(n)
	if opts.prof == nil {
		return op
	}
	p := &profiledOp{inner: op}
	opts.prof[n] = p
	return p
}

// open is instantiate without the profiler's wrapper around n itself: the
// traversal count and the scan aggregate drive a concrete op type directly.
func (opts instOpts) open(n planNode) operation {
	switch n := n.(type) {
	case *argumentNode:
		return &argumentOp{argumentNode: n}
	case *indexNode:
		return &indexOp{indexNode: n}
	case *allNodeScanNode:
		return &allNodeScanOp{allNodeScanNode: n, scanPass: opts.scanPass(&n.scanNode)}
	case *labelScanNode:
		return &labelScanOp{labelScanNode: n, scanPass: opts.scanPass(&n.scanNode)}
	case *indexScanNode:
		return &indexScanOp{indexScanNode: n, scanPass: opts.scanPass(&n.scanNode)}
	case *filterNode:
		return &filterOp{filterNode: n, child: instantiate(n.child, opts)}
	case *projectNode:
		return &projectOp{projectNode: n, child: instantiate(n.child, opts)}
	case *aggregateNode:
		return &aggregateOp{aggregateNode: n, child: instantiate(n.child, opts)}
	case *distinctNode:
		return &distinctOp{distinctNode: n, child: instantiate(n.child, opts)}
	case *sortNode:
		return &sortOp{sortNode: n, child: instantiate(n.child, opts)}
	case *topNSortNode:
		return &topNSortOp{topNSortNode: n, child: instantiate(n.child, opts)}
	case *skipNode:
		return &skipOp{skipNode: n, child: instantiate(n.child, opts)}
	case *limitNode:
		return &limitOp{limitNode: n, child: instantiate(n.child, opts)}
	case *unwindNode:
		return &unwindOp{unwindNode: n, child: instantiate(n.child, opts)}
	case *appendKeysNode:
		return &appendKeysOp{appendKeysNode: n, child: instantiate(n.child, opts)}
	case *condTraverseNode:
		return &condTraverseOp{condTraverseNode: n, child: instantiate(n.child, opts), effBatch: defaultTraverseBatch}
	case *expandIntoNode:
		return &expandIntoOp{expandIntoNode: n, child: instantiate(n.child, opts), effBatch: defaultTraverseBatch}
	case *varLenTraverseNode:
		return &varLenTraverseOp{varLenTraverseNode: n, child: instantiate(n.child, opts)}
	case *traverseCountNode:
		return &traverseCountOp{t: opts.open(n.t).(counter)}
	case *scanAggregateNode:
		return &scanAggregateOp{scanAggregateNode: n, src: opts.open(n.scan).(scanRunner)}
	case *createNode:
		return &createOp{createNode: n, child: instantiate(n.child, opts)}
	case *mergeNode:
		return &mergeOp{mergeNode: n, matchPlan: instantiate(n.child, opts)}
	case *deleteNode:
		return &deleteOp{deleteNode: n, child: instantiate(n.child, opts)}
	case *setNode:
		return &setOp{setNode: n, child: instantiate(n.child, opts)}
	case *joinNode:
		return &joinOp{joinNode: n, probe: instantiate(n.probe, opts), build: instantiate(n.build, opts)}
	}
	panic("core: instantiate: unknown plan node")
}

// scanPass starts a scan's running state: its input, if it has one.
func (opts instOpts) scanPass(n *scanNode) scanPass {
	if n.child == nil {
		return scanPass{}
	}
	return scanPass{child: instantiate(n.child, opts)}
}
