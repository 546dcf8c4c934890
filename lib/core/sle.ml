open Xr_xml
module Slca_engine = Xr_slca.Engine
module P = Dewey.Packed
module PC = Xr_index.Cursor.Packed

type stats = {
  keywords_processed : int;
  partitions_probed : int;
  dp_runs : int;
  stopped_early : bool;
}

(* Processing order (Section VI-C discussion): prefer keywords that appear
   in the RHS of a relevant rule or in no rule's LHS (they need no
   refinement themselves), then ascending list length. List lengths come
   off the packed lists, so ordering materializes nothing. *)
let keyword_order (c : Refine_common.t) =
  let rules = Ruleset.to_list c.rules in
  let in_rhs k = List.exists (fun (r : Rule.t) -> List.mem k r.rhs) rules in
  let in_lhs k = List.exists (fun (r : Rule.t) -> List.mem k r.lhs) rules in
  let score i =
    let k = c.ks.(i) in
    let preferred = in_rhs k || not (in_lhs k) in
    ((if preferred then 0 else 1), Refine_common.list_length c i, i)
  in
  let idx = List.init (Array.length c.ks) Fun.id in
  let nonempty = List.filter (fun i -> Refine_common.list_length c i > 0) idx in
  List.sort (fun a b -> compare (score a) (score b)) nonempty

(* Optimistic bound: cheapest dissimilarity of any refined query built
   from the still-unprocessed keywords. *)
let make_c_potential (c : Refine_common.t) ~processed ~dp_runs () =
  let available kw =
    let rec find i =
      if i >= Array.length c.ks then false
      else if String.equal c.ks.(i) kw then
        (not processed.(i)) && Refine_common.list_length c i > 0
      else find (i + 1)
    in
    find 0
  in
  incr dp_runs;
  match Optimal_rq.optimal ~config:c.dp_config ~rules:c.rules ~available c.query with
  | Some rq when not (Refined_query.is_original rq) -> Some rq.Refined_query.dissimilarity
  | Some _ -> Some 0
  | None -> None

(* Slices, sub-list SLCAs and partition enumeration all run off the
   packed lists. Because a keyword pass probes partitions in ascending id
   order, the slices come from per-list cursors galloping forward (reset
   once per pass) instead of whole-list binary searches. *)
let run ?(ranking = Ranking.default_config) ?(slca = Slca_engine.Scan_packed) ~k
    (c : Refine_common.t) =
  let slca = Slca_engine.packed_partner slca in
  let slca_full keywords =
    Refine_common.meaningful_slcas_ranges c slca
      (Refine_common.packed_full_lists c keywords)
  in
  let q_keywords = Array.to_list (Array.sub c.ks 0 c.q_size) in
  (* Adaptivity check (Definition 3.4): if the original query itself has a
     meaningful SLCA, no refinement happens. *)
  let q_slcas =
    if List.exists (fun k -> Refine_common.keyword_length c k = 0) q_keywords then []
    else slca_full q_keywords
  in
  if q_slcas <> [] then
    ( Result.Original q_slcas,
      { keywords_processed = 0; partitions_probed = 0; dp_runs = 0; stopped_early = false } )
  else begin
    let m = Array.length c.packed in
    let cursors = Array.map PC.make c.packed in
    let probe = [| 0 |] in
    let slices pid =
      Array.init m (fun j ->
          let cur = cursors.(j) in
          probe.(0) <- pid;
          PC.seek_geq_sub cur probe 1;
          let lo = PC.position cur in
          probe.(0) <- pid + 1;
          PC.seek_geq_sub cur probe 1;
          (lo, PC.position cur))
    in
    let rqlist = Rq_list.create ~capacity:(2 * k) in
    let order = keyword_order c in
    let processed = Array.make (Array.length c.ks) false in
    let visited_partitions : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let probed = ref 0 and dp_runs = ref 0 and consumed = ref 0 in
    let stopped = ref false in
    let c_potential = make_c_potential c ~processed ~dp_runs in
    let candidates_for = Refine_common.make_candidates_for c ~k ~dp_runs in
    let process_partition pid =
      if not (Hashtbl.mem visited_partitions pid) then begin
        Hashtbl.add visited_partitions pid ();
        incr probed;
        let ranges = slices pid in
        (* Candidates arrive cost-sorted and [Rq_list] admission is
           monotone in dissimilarity, so the first rejection ends the
           walk — nothing cheaper can follow; an effect-free walk is
           remembered and skipped while the list's revision holds. *)
        let cset = candidates_for ranges in
        if cset.pure_rev <> Rq_list.revision rqlist then begin
          let impure = ref false in
          let rec go = function
            | [] -> ()
            | (rq, key) :: rest ->
              if Refined_query.is_original rq then go rest
              else if not (Rq_list.would_admit rqlist rq.Refined_query.dissimilarity)
              then ()
              else begin
                if not (Rq_list.mem_key rqlist key) then begin
                  impure := true;
                  (* Definition 3.4: admit only with a meaningful SLCA in
                     this partition. *)
                  if
                    Refine_common.meaningful_slcas_ranges c slca
                      (Refine_common.packed_sublists c ranges rq.Refined_query.keywords)
                    <> []
                  then ignore (Rq_list.insert rqlist rq)
                end;
                go rest
              end
          in
          go cset.cands;
          if not !impure then cset.pure_rev <- Rq_list.revision rqlist
        end
      end
    in
    (* one pass over keyword [i]'s list: every partition it touches *)
    let iter_partitions i =
      (* new pass: partition ids restart from the low end *)
      Array.iteri (fun j pk -> cursors.(j) <- PC.make pk) c.packed;
      let pk = c.packed.(i) in
      for e = 0 to P.length pk - 1 do
        if P.depth_at pk e > 0 then process_partition (P.first_component pk e)
      done
    in
    let rec loop = function
      | [] -> ()
      | i :: rest ->
        let stop =
          Rq_list.max_dissimilarity rqlist <> None
          &&
          match (c_potential (), Rq_list.max_dissimilarity rqlist) with
          | None, _ -> true
          | Some p, Some m -> p > m
          | Some _, None -> false
        in
        if stop then stopped := true
        else begin
          incr consumed;
          iter_partitions i;
          processed.(i) <- true;
          loop rest
        end
    in
    loop order;
    let pool = Rq_list.to_list rqlist in
    let outcome =
      if pool = [] then Result.No_result
      else begin
        let scored =
          Ranking.rank ~config:ranking c.index.Xr_index.Index.stats ~original:c.query pool
        in
        let top = List.filteri (fun i _ -> i < k) scored in
        (* Step 2: full-document SLCA computation for the final Top-K. *)
        Result.Refined
          (List.map
             (fun (s : Ranking.scored) ->
               let slcas = slca_full s.rq.Refined_query.keywords in
               { Result.rq = s.rq; score = Some s; slcas })
             top)
      end
    in
    ( outcome,
      {
        keywords_processed = !consumed;
        partitions_probed = !probed;
        dp_runs = !dp_runs;
        stopped_early = !stopped;
      } )
  end
