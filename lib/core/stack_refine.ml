open Xr_xml
module Meaningful = Xr_slca.Meaningful
module P = Dewey.Packed

type stats = {
  pops : int;
  dp_runs : int;
}

type entry = {
  witness : bool array; (* over KS *)
  mutable q_slca_below : bool; (* an SLCA of the original query was reported below *)
}

(* The outcome bookkeeping of the scan. [node] is lazy so the scan
   materializes a Dewey label only for pops that actually inspect it
   (q-SLCA candidates and refinement winners). *)
type state = {
  c : Refine_common.t;
  m : int;
  pops : int ref;
  dp_runs : int ref;
  dp_memo : (int, Refined_query.t option) Hashtbl.t;
      (* getOptimalRQ is a pure function of the witness set, and a pop
         can only witness one of 2^|KS| sets — memoizing by witness
         bitmask turns the per-pop DP into a table lookup. [dp_runs]
         counts actual DP evaluations (distinct witnessed sets). *)
  memo_vals : Refined_query.t option array;
  memo_seen : bool array;
      (* allocation-free memo rows used instead of [dp_memo] when the
         bitmask fits a small direct-indexed table *)
  q_found : bool ref;
  q_results : Dewey.t list ref;
  min_ds : int ref;
  best_rq : Refined_query.t option ref;
  best_results : Dewey.t list ref;
}

let make_state (c : Refine_common.t) =
  let m = Array.length c.ks in
  let direct = if m <= 16 then 1 lsl m else 0 in
  {
    c;
    m;
    pops = ref 0;
    dp_runs = ref 0;
    dp_memo = Hashtbl.create 16;
    memo_vals = Array.make (max 1 direct) None;
    memo_seen = Array.make (max 1 direct) false;
    q_found = ref false;
    q_results = ref [];
    min_ds = ref max_int;
    best_rq = ref None;
    best_results = ref [];
  }

let optimal_rq (st : state) (witness : bool array) =
  let c = st.c in
  let run () =
    let available k =
      let rec find i =
        if i >= st.m then false
        else if String.equal c.ks.(i) k then witness.(i)
        else find (i + 1)
      in
      find 0
    in
    incr st.dp_runs;
    Optimal_rq.optimal ~config:c.dp_config ~rules:c.rules ~available c.query
  in
  if st.m > 62 then run ()
  else begin
    let key = ref 0 in
    for i = 0 to st.m - 1 do
      if witness.(i) then key := !key lor (1 lsl i)
    done;
    let key = !key in
    if st.m <= 16 then
      if st.memo_seen.(key) then st.memo_vals.(key)
      else begin
        let rq = run () in
        st.memo_seen.(key) <- true;
        st.memo_vals.(key) <- rq;
        rq
      end
    else
      match Hashtbl.find_opt st.dp_memo key with
      | Some rq -> rq
      | None ->
        let rq = run () in
        Hashtbl.add st.dp_memo key rq;
        rq
  end

let covers_q (st : state) w =
  let rec go i = i >= st.c.q_size || (w.(i) && go (i + 1)) in
  st.c.q_size > 0 && go 0

let handle_pop (st : state) (e : entry) (node : Dewey.t Lazy.t) parent =
  let c = st.c in
  incr st.pops;
  (* Original-query SLCA check (lines 10-12 of Algorithm 1). *)
  let is_q_slca = covers_q st e.witness && not e.q_slca_below in
  if is_q_slca then begin
    let node = Lazy.force node in
    if Meaningful.is_meaningful_dewey c.meaningful node then begin
      st.q_found := true;
      st.q_results := node :: !(st.q_results)
    end;
    parent.q_slca_below <- true
  end;
  (* Refinement exploration (lines 13-19). *)
  if (not !(st.q_found)) && (not is_q_slca) && Array.exists Fun.id e.witness then begin
    match optimal_rq st e.witness with
    | None -> ()
    | Some rq when Refined_query.is_original rq ->
      (* the query itself is fully witnessed here; handled by the
         meaningful-SLCA branch, never reported as a refinement *)
      ()
    | Some rq ->
      let ds = rq.Refined_query.dissimilarity in
      if ds < !(st.min_ds) then begin
        let node = Lazy.force node in
        if Meaningful.is_meaningful_dewey c.meaningful node then begin
          st.min_ds := ds;
          st.best_rq := Some rq;
          st.best_results := [ node ]
        end
      end
      else if ds = !(st.min_ds) then begin
        match !(st.best_rq) with
        (* the memo hands back one object per witness set, so physical
           equality settles the common case without rebuilding keys *)
        | Some best
          when best == rq
               || String.equal (Refined_query.key best) (Refined_query.key rq) ->
          let node = Lazy.force node in
          (* Results are reported in postorder, so a node's already-reported
             descendants sit contiguously at the head of the list: probing
             the head alone decides the keep-only-lowest-ancestors dedup. *)
          let covered =
            match !(st.best_results) with
            | r :: _ -> Dewey.is_prefix node r
            | [] -> false
          in
          if (not covered) && Meaningful.is_meaningful_dewey c.meaningful node then
            st.best_results := node :: !(st.best_results)
        | Some _ | None -> ()
      end
  end;
  (* Witness propagation to the parent. *)
  let w = e.witness and pw = parent.witness in
  for i = 0 to st.m - 1 do
    if w.(i) then pw.(i) <- true
  done;
  if e.q_slca_below then parent.q_slca_below <- true

let finish ~ranking (st : state) =
  let c = st.c in
  let outcome =
    if !(st.q_found) then Result.Original (List.rev !(st.q_results))
    else
      match !(st.best_rq) with
      | None -> Result.No_result
      | Some rq ->
        let score =
          Ranking.score ~config:ranking c.index.Xr_index.Index.stats ~original:c.query rq
        in
        Result.Refined
          [ { Result.rq; score = Some score; slcas = List.rev !(st.best_results) } ]
  in
  (outcome, { pops = !(st.pops); dp_runs = !(st.dp_runs) })

(* Packed merged scan. Each list's current head is decoded once into a
   per-list buffer when the cursor advances, so the multiway merge
   compares plain ints; the stack is a preallocated ladder of entries
   indexed by depth (rows are cleared on pop, so "pushing" allocates
   nothing); the path lives in one reused buffer. The steady-state loop
   materializes nothing — no posting array, no label, no stack node. *)
let run ?(ranking = Ranking.default_config) (c : Refine_common.t) =
  let st = make_state c in
  let m = st.m in
  let lens = Array.map P.length c.packed in
  let maxd = max 1 (Array.fold_left (fun a pk -> max a (P.max_depth pk)) 1 c.packed) in
  let pos = Array.make m 0 in
  (* decoded cursor heads; head_len.(i) < 0 marks an exhausted list *)
  let heads = Array.init m (fun _ -> Array.make maxd 0) in
  let head_len = Array.make m (-1) in
  let fetch i =
    head_len.(i) <-
      (if pos.(i) < lens.(i) then P.blit_entry c.packed.(i) pos.(i) heads.(i) else -1)
  in
  for i = 0 to m - 1 do
    fetch i
  done;
  let path = Array.make maxd 0 in
  let path_len = ref 0 in
  (* stack ladder: entries.(d) is the entry holding path component d - 1,
     row 0 the root sentinel; rows above path_len are all-clear *)
  let entries =
    Array.init (maxd + 1) (fun _ -> { witness = Array.make m false; q_slca_below = false })
  in
  let pop_to target =
    while !path_len > target do
      let len = !path_len in
      let e = entries.(len) in
      handle_pop st e (lazy (Array.sub path 0 len)) entries.(len - 1);
      Array.fill e.witness 0 m false;
      e.q_slca_below <- false;
      path_len := len - 1
    done
  in
  (* Dewey order on the decoded heads: ancestors before descendants. *)
  let head_lt i j =
    let a = heads.(i) and b = heads.(j) in
    let la = head_len.(i) and lb = head_len.(j) in
    let lim = if la < lb then la else lb in
    let rec go p =
      if p >= lim then la < lb
      else if a.(p) <> b.(p) then a.(p) < b.(p)
      else go (p + 1)
    in
    go 0
  in
  let smallest () =
    let best = ref (-1) in
    for i = 0 to m - 1 do
      if head_len.(i) >= 0 then
        if !best < 0 then best := i else if head_lt i !best then best := i
    done;
    !best
  in
  let rec loop () =
    let i = smallest () in
    if i >= 0 then begin
      let head = heads.(i) in
      let d = head_len.(i) in
      let lim = min d !path_len in
      let lcp = ref 0 in
      while !lcp < lim && head.(!lcp) = path.(!lcp) do
        incr lcp
      done;
      pop_to !lcp;
      for j = !lcp to d - 1 do
        path.(j) <- head.(j)
      done;
      path_len := d;
      entries.(d).witness.(i) <- true;
      (* consume the head only now — [fetch] reuses its buffer *)
      pos.(i) <- pos.(i) + 1;
      fetch i;
      loop ()
    end
  in
  loop ();
  pop_to 0;
  (* The root sentinel: the root is never a meaningful SLCA (excluded from
     the search-for candidates), so only its bookkeeping remains. *)
  finish ~ranking st
