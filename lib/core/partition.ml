open Xr_xml
module Slca_engine = Xr_slca.Engine
module P = Dewey.Packed
module PC = Xr_index.Cursor.Packed

type stats = {
  partitions_visited : int;
  partitions_skipped : int;
  dp_runs : int;
  slca_runs : int;
}

let partition_roots (doc : Doc.t) =
  List.mapi (fun i _ -> [| i |]) (Tree.element_children doc.tree)

(* KS lists the query's own keywords first, so original-query availability
   is a direct range probe — no keyword-name lookups in the scan loop. *)
let q_available (c : Refine_common.t) ranges =
  let rec go i =
    i >= c.q_size
    ||
    let lo, hi = ranges.(i) in
    hi > lo && go (i + 1)
  in
  go 0

(* Walk a partition's cost-sorted candidate list, admitting refined
   queries that witness a meaningful SLCA here (the Definition 3.4 gate).
   [Optimal_rq.top_k] sorts by dissimilarity and [Rq_list] admission is
   monotone in it, so the walk stops at the first candidate the list
   rejects — the common case once the list saturates is a single
   admission probe per partition. *)
let process_candidates ~try_original ~q_found ~rqlist ~slca_runs ~skipped ~slca_of
    (cset : Refine_common.cand_set) ranges =
  if cset.pure_rev = Rq_list.revision rqlist then
    (* the previous walk of this list at this revision touched nothing
       range-dependent, so its only effect was the skip count *)
    incr skipped
  else begin
    let any_slca = ref false in
    let impure = ref false in
    let rec go = function
      | [] -> ()
      | (rq, key) :: rest ->
        if Refined_query.is_original rq then begin
          impure := true;
          try_original ranges;
          go rest
        end
        else if !q_found then ()
        else if not (Rq_list.would_admit rqlist rq.Refined_query.dissimilarity) then ()
        else begin
          (* candidates already validated need no further work here: their
             complete result sets are materialized once, at the end *)
          if not (Rq_list.mem_key rqlist key) then begin
            impure := true;
            incr slca_runs;
            any_slca := true;
            if slca_of ranges rq.Refined_query.keywords <> [] then
              ignore (Rq_list.insert rqlist rq)
          end;
          go rest
        end
    in
    go cset.cands;
    if not !any_slca then incr skipped;
    if not !impure then cset.pure_rev <- Rq_list.revision rqlist
  end

(* Packed scan: the per-list cursors gallop over the packed lists
   ({!Xr_index.Cursor.Packed}); heads are compared and the partition
   membership probed in varint-encoded form, slice ends come from a
   galloping seek to the next partition root (O(log partition) probes
   near the cursor instead of a whole-list binary search), and the
   per-partition SLCAs run on packed ranges. *)
let run ?(ranking = Ranking.default_config) ?(slca = Slca_engine.Scan_packed) ~k
    (c : Refine_common.t) =
  let slca = Slca_engine.packed_partner slca in
  let m = Array.length c.packed in
  let cursors = Array.map PC.make c.packed in
  let head_pos i = PC.position cursors.(i) in
  let rqlist = Rq_list.create ~capacity:(2 * k) in
  let q_found = ref false in
  let q_results = ref [] in
  let visited = ref 0 and skipped = ref 0 and dp_runs = ref 0 and slca_runs = ref 0 in
  let q_keywords = Array.to_list (Array.sub c.ks 0 c.q_size) in
  (* Root postings (depth 0) belong to no partition and sort before every
     labelled entry, so they can only sit at the very front of a list:
     skip them once and the scan below never sees depth 0 again. *)
  Array.iteri
    (fun i pk ->
      let cur = cursors.(i) in
      while (not (PC.at_end cur)) && P.depth_at pk (PC.position cur) = 0 do
        PC.advance cur
      done)
    c.packed;
  (* The scan only needs the smallest partition id among the heads — the
     first components decide that without full entry comparisons. *)
  let next_pid () =
    let best = ref max_int in
    for i = 0 to m - 1 do
      if not (PC.at_end cursors.(i)) then begin
        let p = P.first_component c.packed.(i) (head_pos i) in
        if p < !best then best := p
      end
    done;
    !best
  in
  let try_original ranges =
    (* Does the original query match meaningfully inside this partition? *)
    if q_available c ranges then begin
      incr slca_runs;
      let slcas =
        Refine_common.meaningful_slcas_ranges c slca
          (Refine_common.packed_sublists c ranges q_keywords)
      in
      if slcas <> [] then begin
        q_found := true;
        q_results := !q_results @ slcas
      end
    end
  in
  let candidates_for = Refine_common.make_candidates_for c ~k ~dp_runs in
  let slca_of ranges keywords =
    Refine_common.meaningful_slcas_ranges c slca
      (Refine_common.packed_sublists c ranges keywords)
  in
  (* Once the original query is known to match, the remaining partitions
     only contribute more of its SLCAs; one plain engine pass over the
     unread suffix of the query's lists finishes the job without the
     per-partition bookkeeping (cursors still only move forward). A
     root-spanning SLCA cannot be fabricated from suffixes: only the
     document root sits above partitions and it is never meaningful. *)
  let finish_original () =
    let suffixes =
      List.init c.q_size (fun i -> (c.packed.(i), head_pos i, P.length c.packed.(i)))
    in
    incr slca_runs;
    q_results := !q_results @ Refine_common.meaningful_slcas_ranges c slca suffixes
  in
  let next_root = [| 0 |] in
  let rec scan () =
    let pid = next_pid () in
    if pid < max_int then
      if !q_found then finish_original ()
      else begin
        (* A keyword is present in this partition iff its cursor head lies
           under the partition root (cursors never lag behind the current
           partition), so presence costs one probe in encoded form; only
           present lists seek — a gallop to the next partition root, which
           lands just past this partition's postings. *)
        next_root.(0) <- pid + 1;
        let ranges =
          Array.mapi
            (fun j pk ->
              let cur = cursors.(j) in
              let start = PC.position cur in
              if (not (PC.at_end cur)) && P.first_component pk start = pid then begin
                PC.seek_geq_sub cur next_root 1;
                (start, PC.position cur)
              end
              else (start, start))
            c.packed
        in
        incr visited;
        (* the cost-0 candidate (the query itself) comes first: if it
           matches meaningfully here, no refinement work is needed at all *)
        if q_available c ranges then
          try_original ranges;
        if not !q_found then
          (* Definition 3.4 gate over the partition's candidates *)
          process_candidates ~try_original ~q_found ~rqlist ~slca_runs ~skipped ~slca_of
            (candidates_for ranges) ranges;
        scan ()
      end
  in
  scan ();
  let outcome =
    if !q_found then Result.Original !q_results
    else begin
      let pool = Rq_list.to_list rqlist in
      if pool = [] then Result.No_result
      else begin
        let scored =
          Ranking.rank ~config:ranking c.index.Xr_index.Index.stats ~original:c.query pool
        in
        let top = List.filteri (fun i _ -> i < k) scored in
        (* Materialize the complete result set of each final Top-K refined
           query with one pass over its full lists (any node other than
           the root lives in exactly one partition, so this equals the
           union of the per-partition SLCAs, with the meaningless root
           filtered out). *)
        Result.Refined
          (List.map
             (fun (s : Ranking.scored) ->
               let slcas =
                 Refine_common.meaningful_slcas_ranges c slca
                   (Refine_common.packed_full_lists c s.rq.Refined_query.keywords)
               in
               { Result.rq = s.rq; score = Some s; slcas })
             top)
      end
    end
  in
  ( outcome,
    {
      partitions_visited = !visited;
      partitions_skipped = !skipped;
      dp_runs = !dp_runs;
      slca_runs = !slca_runs;
    } )
