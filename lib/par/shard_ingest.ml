open Ds_stream

type 'a policy =
  | Chunked
  | Round_robin
  | By_key of ('a -> int)

let by_vertex : Update.t policy = By_key (fun u -> min u.Update.u u.Update.v)

(* Telemetry is batch-granular: counters are bumped once per [ingest]
   call from per-worker local tallies (never per update, never per
   chunk from inside the hot loop), so the enabled overhead on the AGM
   path stays well under the 3% budget. *)
let m_updates = Ds_obs.Metrics.counter "par.ingest.updates"
let m_batches = Ds_obs.Metrics.counter "par.ingest.batches"
let m_steals = Ds_obs.Metrics.counter "par.ingest.steals"
let m_batch_size = Ds_obs.Quantile.quantile "par.ingest.batch_size"
let m_arena_bytes = Ds_obs.Metrics.gauge "par.ingest.arena_bytes"

(* ------------------------------------------------------------------ *)
(* Replica arenas                                                      *)
(* ------------------------------------------------------------------ *)

(* Worker replicas cost one off-heap buffer each; an arena keeps them
   alive across runs so repeated ingests into the same sketch structure
   stop allocating. A recycled replica is handed back to its worker
   after a [reset] (one buffer fill back to the zero vector — cheaper
   than the blit a fresh clone would need, and equivalent: the zero
   sketch of any linear family is the all-zero buffer). Slot 0 never
   draws from the arena: it ingests directly into the caller's sketch. *)
type 's arena = {
  reset : 's -> unit;
  bytes_of : 's -> int;
  mutable slots : 's option array; (* indexed by worker slot; grown on demand *)
  mutable bytes : int;
}

let arena ?(bytes_of = fun _ -> 0) ~reset () = { reset; bytes_of; slots = [||]; bytes = 0 }

let arena_of (type s) ((module L) : s Ds_sketch.Linear_sketch.impl) =
  arena ~reset:L.reset ~bytes_of:(fun s -> 8 * L.space_in_words s) ()

let arena_bytes a = a.bytes

(* Called before the parallel region: growing [slots] must not race the
   workers' disjoint per-slot reads and writes. *)
let arena_reserve a workers =
  let len = Array.length a.slots in
  if len < workers then begin
    let slots = Array.make workers None in
    Array.blit a.slots 0 slots 0 len;
    a.slots <- slots
  end

(* Called after the parallel region (workers stash replicas into
   disjoint slots during it; accounting would race there). *)
let arena_refresh a =
  a.bytes <-
    Array.fold_left
      (fun acc -> function Some r -> acc + a.bytes_of r | None -> acc)
      0 a.slots;
  if Ds_obs.Metrics.enabled () then Ds_obs.Metrics.set m_arena_bytes a.bytes

(* Materialized partition, kept for tests and custom drivers (the engine
   itself never copies per shard any more — see [plan]). *)
let split policy ~shards items =
  if shards < 1 then invalid_arg "Shard_ingest.split: need at least one shard";
  let n = Array.length items in
  match policy with
  | Chunked ->
      (* Contiguous slices, sizes differing by at most one. *)
      Array.init shards (fun s ->
          let lo = s * n / shards and hi = (s + 1) * n / shards in
          Array.sub items lo (hi - lo))
  | Round_robin ->
      Array.init shards (fun s ->
          let len = ((n - s) + shards - 1) / shards in
          Array.init len (fun i -> items.(s + (i * shards))))
  | By_key key ->
      let counts = Array.make shards 0 in
      let route = Array.map (fun it -> (key it land max_int) mod shards) items in
      Array.iter (fun s -> counts.(s) <- counts.(s) + 1) route;
      let parts = Array.map (fun c -> Array.make c items.(0)) counts in
      let fill = Array.make shards 0 in
      Array.iteri
        (fun i it ->
          let s = route.(i) in
          parts.(s).(fill.(s)) <- it;
          fill.(s) <- fill.(s) + 1)
        items;
      parts

(* ------------------------------------------------------------------ *)
(* Chunk plans: the zero-copy replacement for [split]                  *)
(* ------------------------------------------------------------------ *)

type 'a plan = {
  data : 'a array;
  chunk_lo : int array;
  chunk_len : int array;
  deal : int array array;
}

(* Chunks are sized to feed the batched kernels: big enough that
   [update_slice]'s locality regrouping amortizes (AGM regroups from 64
   elements), small enough that a worker's deal is several chunks and
   thieves have something to steal. *)
let default_chunk ~workers n = max 1 (min n (max 512 (n / (workers * 8))))

(* Chunk ids covering [lo, hi) in [chunk]-sized ranges, appended to the
   accumulators in order. *)
let push_ranges ~chunk ~lo ~hi los lens =
  let pos = ref lo in
  while !pos < hi do
    let len = min chunk (hi - !pos) in
    los := !pos :: !los;
    lens := len :: !lens;
    pos := !pos + len
  done

let rec plan ?chunk policy ~workers items =
  if workers < 1 then invalid_arg "Shard_ingest.plan: need at least one worker";
  let n = Array.length items in
  let chunk =
    match chunk with
    | Some c when c < 1 -> invalid_arg "Shard_ingest.plan: chunk must be positive"
    | Some c -> c
    | None -> default_chunk ~workers n
  in
  match policy with
  | Chunked | Round_robin ->
      let nchunks = (n + chunk - 1) / chunk in
      let chunk_lo = Array.init nchunks (fun i -> i * chunk) in
      let chunk_len = Array.init nchunks (fun i -> min chunk (n - (i * chunk))) in
      let deal =
        match policy with
        | Chunked ->
            (* Contiguous runs of chunks per worker: each worker starts on
               a cache-local span of the stream. *)
            Array.init workers (fun w ->
                let lo = w * nchunks / workers and hi = (w + 1) * nchunks / workers in
                Array.init (hi - lo) (fun i -> lo + i))
        | _ ->
            (* Round_robin deals *chunks* round-robin: each worker gets an
               interleaved sample of the stream. By linearity this yields
               the same final sketch as the classic element-stride deal,
               without the strided copy. *)
            Array.init workers (fun w ->
                let len = ((nchunks - w) + workers - 1) / workers in
                Array.init len (fun i -> w + (i * workers)))
      in
      { data = items; chunk_lo; chunk_len; deal }
  | By_key _ when workers = 1 ->
      (* One shard: routing is the identity partition, skip the permute. *)
      plan ~chunk Chunked ~workers items
  | By_key key ->
      (* One counting-sort pass groups same-key items into contiguous
         segments of a single permuted copy — the only copy the engine
         ever makes, shared by all shards (the old [split] allocated the
         same total as fresh per-shard arrays, plus per-shard headers). *)
      let counts = Array.make workers 0 in
      let route = Array.map (fun it -> (key it land max_int) mod workers) items in
      Array.iter (fun s -> counts.(s) <- counts.(s) + 1) route;
      let seg_lo = Array.make (workers + 1) 0 in
      for s = 0 to workers - 1 do
        seg_lo.(s + 1) <- seg_lo.(s) + counts.(s)
      done;
      let data = Array.make n items.(0) in
      let fill = Array.copy seg_lo in
      Array.iteri
        (fun i it ->
          let s = route.(i) in
          data.(fill.(s)) <- it;
          fill.(s) <- fill.(s) + 1)
        items;
      let los = ref [] and lens = ref [] in
      let deal =
        Array.init workers (fun s ->
            let first = List.length !los in
            push_ranges ~chunk ~lo:seg_lo.(s) ~hi:seg_lo.(s + 1) los lens;
            let count = List.length !los - first in
            Array.init count (fun i -> first + i))
      in
      let chunk_lo = Array.of_list (List.rev !los) in
      let chunk_len = Array.of_list (List.rev !lens) in
      { data; chunk_lo; chunk_len; deal }

(* ------------------------------------------------------------------ *)
(* The work-stealing engine                                            *)
(* ------------------------------------------------------------------ *)

let resolve_workers pool workers =
  match workers with
  | Some w when w < 1 -> invalid_arg "Shard_ingest: need at least one worker"
  | Some w -> w
  | None ->
      (* Replicas cost a clone and a merge each, so never keep more than
         can actually run concurrently: the pool may deliberately be
         larger than the machine (tests, oversubscription experiments),
         but extra replicas on a saturated host are pure overhead. *)
      max 1 (min (Pool.size pool) (Domain.recommended_domain_count ()))

(* Log-depth reduction of the live replicas; each round's merges run
   concurrently on the pool, so the reduction costs O(log W) rounds of
   wall-clock instead of W serial full-sketch adds.  Any merge order
   gives bit-identical results: counters are integers and addition is
   commutative and associative. *)
let tree_merge pool merge live =
  let len = Array.length live in
  let stride = ref 1 in
  while !stride < len do
    let s = !stride in
    let pairs = ref [] in
    let i = ref 0 in
    while !i + s < len do
      pairs := (!i, !i + s) :: !pairs;
      i := !i + (2 * s)
    done;
    (match !pairs with
    | [] -> ()
    | [ (a, b) ] -> merge live.(a) live.(b)
    | ps -> ignore (Pool.run pool (List.rev_map (fun (a, b) () -> merge live.(a) live.(b)) ps)));
    stride := 2 * s
  done

(* Run the parallel region over a plan.  [make_slot] is called lazily,
   on the worker's own domain, the first time that worker executes a
   chunk — workers that never win a chunk never pay for a replica.
   Returns the surviving replicas in slot order. *)
let run_plan pool ~workers ~make_slot ~update p =
  let deques = Array.map Ws_deque.of_array p.deal in
  let replicas = Array.make workers None in
  let steal_tally = Array.make workers 0 in
  let region slot =
    let replica = ref None in
    let stolen = ref 0 in
    let exec c =
      let r =
        match !replica with
        | Some r -> r
        | None ->
            let r = make_slot slot in
            replica := Some r;
            r
      in
      update r p.data ~pos:p.chunk_lo.(c) ~len:p.chunk_len.(c)
    in
    let rec drain () =
      match Ws_deque.take deques.(slot) with
      | Some c ->
          exec c;
          drain ()
      | None -> ()
    in
    drain ();
    (* Steal sweeps: one chunk per victim per pass, so a thief spreads
       its help across every stalled owner.  Nothing is ever pushed
       after the deal, so a pass that finds every deque empty is a
       certificate of global completion. *)
    if workers > 1 then begin
      let continue_ = ref true in
      while !continue_ do
        let found = ref false in
        for d = 1 to workers - 1 do
          match Ws_deque.steal deques.((slot + d) mod workers) with
          | Some c ->
              found := true;
              incr stolen;
              exec c
          | None -> ()
        done;
        if not !found then continue_ := false
      done
    end;
    replicas.(slot) <- !replica;
    steal_tally.(slot) <- !stolen
  in
  Ds_obs.Trace.with_span "par.ingest" (fun () ->
      ignore
        (Pool.run pool
           (List.init workers (fun slot () ->
                Ds_obs.Trace.with_span "par.worker" (fun () -> region slot)))));
  if Ds_obs.Metrics.enabled () then begin
    Ds_obs.Metrics.incr m_updates (Array.length p.data);
    Ds_obs.Metrics.incr m_batches (Array.length p.chunk_lo);
    Ds_obs.Metrics.incr m_steals (Array.fold_left ( + ) 0 steal_tally);
    Array.iter (Ds_obs.Quantile.observe m_batch_size) p.chunk_len
  end;
  Array.of_list (List.filter_map Fun.id (Array.to_list replicas))

let ingest pool ?(policy = Chunked) ?chunk ?workers ~make ~update ~merge items =
  let workers = resolve_workers pool workers in
  if Array.length items = 0 then make ()
  else begin
    let p = plan ?chunk policy ~workers items in
    let live = run_plan pool ~workers ~make_slot:(fun _ -> make ()) ~update p in
    if Array.length live = 0 then make ()
    else begin
      tree_merge pool merge live;
      live.(0)
    end
  end

let ingest_into pool ?(policy = Chunked) ?chunk ?workers ?arena ~clone_zero ~update ~add
    sketch items =
  let workers = resolve_workers pool workers in
  if Array.length items > 0 then begin
    let p = plan ?chunk policy ~workers items in
    (match arena with Some a -> arena_reserve a workers | None -> ());
    (* Worker slot 0 ingests straight into the caller's sketch — by
       linearity, adding its shard in place now or via a replica later
       is the same sum — which makes the single-worker path (and the
       common case of a lightly loaded pool) clone-free and merge-free.
       Other slots draw a recycled replica from the arena when one is
       attached, cloning only on a slot's first use ever. *)
    let make_slot slot =
      if slot = 0 then sketch
      else
        match arena with
        | None -> clone_zero sketch
        | Some a -> (
            match a.slots.(slot) with
            | Some r ->
                a.reset r;
                r
            | None ->
                let r = clone_zero sketch in
                a.slots.(slot) <- Some r;
                r)
    in
    let live = run_plan pool ~workers ~make_slot ~update p in
    (match arena with Some a -> arena_refresh a | None -> ());
    if Array.length live > 0 then begin
      tree_merge pool add live;
      if live.(0) != sketch then add sketch live.(0)
    end
  end

(* One entry point for anything implementing the linear-sketch interface:
   lazy replicas, (index, delta) chunk ranges, reduce by linearity. *)
let linear (type s) pool ?policy ?chunk ?workers ?arena
    ((module L) : s Ds_sketch.Linear_sketch.impl) (sketch : s)
    (pairs : (int * int) array) =
  ingest_into pool ?policy ?chunk ?workers ?arena ~clone_zero:L.clone_zero
    ~update:(fun s arr ~pos ~len ->
      for i = pos to pos + len - 1 do
        let index, delta = arr.(i) in
        L.update s ~index ~delta
      done)
    ~add:L.add sketch pairs

(* The edge-stream wrappers route chunks through the [update_slice]
   batched kernels: the parallel path regroups each chunk by lower
   endpoint exactly like the single-thread fast path, sharing the same
   key-power tables, with no per-shard array materialization. *)
let agm pool ?policy ?chunk ?workers ?arena sketch updates =
  ingest_into pool ?policy ?chunk ?workers ?arena ~clone_zero:Ds_agm.Agm_sketch.clone_zero
    ~update:(fun s arr ~pos ~len -> Ds_agm.Agm_sketch.update_slice s arr ~pos ~len)
    ~add:Ds_agm.Agm_sketch.add sketch updates

let agm_arena () =
  arena ~reset:Ds_agm.Agm_sketch.reset
    ~bytes_of:(fun s -> 8 * Ds_agm.Agm_sketch.space_in_words s)
    ()

let connectivity pool ?policy ?chunk ?workers ?arena:a conn updates =
  ingest_into pool ?policy ?chunk ?workers ?arena:a
    ~clone_zero:Ds_agm.Connectivity.clone_zero
    ~update:(fun s arr ~pos ~len -> Ds_agm.Connectivity.update_slice s arr ~pos ~len)
    ~add:Ds_agm.Connectivity.absorb conn updates

let l0_sampler pool ?policy ?chunk ?workers ?arena:a sampler pairs =
  ingest_into pool ?policy ?chunk ?workers ?arena:a
    ~clone_zero:Ds_sketch.L0_sampler.clone_zero
    ~update:(fun s arr ~pos ~len -> Ds_sketch.L0_sampler.update_slice s arr ~pos ~len)
    ~add:Ds_sketch.L0_sampler.add sampler pairs

let sparse_recovery pool ?policy ?chunk ?workers ?arena:a sketch pairs =
  ingest_into pool ?policy ?chunk ?workers ?arena:a
    ~clone_zero:Ds_sketch.Sparse_recovery.clone_zero
    ~update:(fun s arr ~pos ~len -> Ds_sketch.Sparse_recovery.update_slice s arr ~pos ~len)
    ~add:Ds_sketch.Sparse_recovery.add sketch pairs
