open Xr_xml
module Index = Xr_index.Index
module Inverted = Xr_index.Inverted
module Slca_engine = Xr_slca.Engine
module Scan_packed = Xr_slca.Scan_packed
module Meaningful = Xr_slca.Meaningful
module Engine = Xr_refine.Engine
module P = Dewey.Packed

type search_exec =
  | Dead
  | Tiny of (P.t * int * int) * (P.t * int * int) list
  | Ranges of (P.t * int * int) list
  | Boxed

type search = {
  s_slca : Slca_engine.algorithm;
  s_ids : Interner.id list;
  s_exec : search_exec;
}

(* Mirror of the [parse] stage of {!Engine.search}: normalize, dedupe,
   resolve. [None] exactly when search would return [[]] without
   scanning (out-of-vocabulary keyword or an empty posting list). *)
let compile_search ?(config = Engine.default_config) (index : Index.t) query =
  let doc = index.Index.doc in
  let alg = config.Engine.slca in
  let keywords =
    List.filter (fun k -> String.length k > 0) (List.map Token.normalize query)
    |> List.sort_uniq String.compare
  in
  let rec resolve acc = function
    | [] -> Some (List.rev acc)
    | k :: rest -> (
      match Doc.keyword_id doc k with
      | Some kw -> resolve (kw :: acc) rest
      | None -> None)
  in
  match resolve [] keywords with
  | None -> { s_slca = alg; s_ids = []; s_exec = Dead }
  | Some ids ->
    if List.exists (fun kw -> Inverted.length index.Index.inverted kw = 0) ids then
      { s_slca = alg; s_ids = ids; s_exec = Dead }
    else if not (Slca_engine.is_packed alg) then
      { s_slca = alg; s_ids = ids; s_exec = Boxed }
    else begin
      let ranges =
        List.map
          (fun kw ->
            let pk = (Inverted.packed_list index.Index.inverted kw).Inverted.labels in
            (pk, 0, P.length pk))
          ids
      in
      match alg with
      | Slca_engine.Scan_packed -> (
        (* Selectivity order decided here, once: the kernel's stable
           sort is a fixpoint on the pre-sorted list, so handing the
           sorted ranges back to it changes nothing. *)
        match Scan_packed.sort_by_length ranges with
        | ((_, dlo, dhi) as driver) :: others
          when dhi - dlo <= Scan_packed.tiny_threshold () ->
          { s_slca = alg; s_ids = ids; s_exec = Tiny (driver, others) }
        | sorted -> { s_slca = alg; s_ids = ids; s_exec = Ranges sorted })
      | _ ->
        (* stack-packed consumes the lists in resolution order, exactly
           as [query_ids] hands them over *)
        { s_slca = alg; s_ids = ids; s_exec = Ranges ranges }
    end

(* Total postings feeding the scan — the "candidates in" figure of the
   ANALYZE stage report. Only computed when a report is active. *)
let exec_postings index ids = function
  | Dead -> 0
  | Tiny ((_, dlo, dhi), others) ->
    List.fold_left (fun acc (_, lo, hi) -> acc + hi - lo) (dhi - dlo) others
  | Ranges ranges -> List.fold_left (fun acc (_, lo, hi) -> acc + hi - lo) 0 ranges
  | Boxed -> List.fold_left (fun acc kw -> acc + Inverted.length index.Index.inverted kw) 0 ids

let run_search ?(config = Engine.default_config) plan (index : Index.t) =
  match plan.s_exec with
  | Dead -> []
  | exec ->
    (* The memo table behind [Meaningful.t] is single-threaded, so the
       statistics handle is per-run, never part of the cached plan. *)
    let meaningful =
      Xr_obs.Tracing.with_span "parse" (fun () ->
          Meaningful.make ~config:config.Engine.search_for index.Index.stats plan.s_ids)
    in
    let slcas =
      match exec with
      | Dead -> assert false
      | Boxed -> Slca_engine.query_ids plan.s_slca index plan.s_ids
      | Ranges ranges -> Slca_engine.compute_ranges plan.s_slca ranges
      | Tiny (driver, others) ->
        Xr_obs.Tracing.with_span "slca.scan" (fun () ->
            Scan_packed.scan_tiny ~driver ~others ())
    in
    let filtered =
      Xr_obs.Tracing.with_span "slca.filter" (fun () -> Meaningful.filter meaningful slcas)
    in
    if Xr_obs.Analyze.active () then begin
      let nslcas = List.length slcas in
      Xr_obs.Analyze.note_stage ~name:"slca.scan"
        ~input:(exec_postings index plan.s_ids exec)
        ~output:nslcas;
      Xr_obs.Analyze.note_stage ~name:"slca.filter" ~input:nslcas
        ~output:(List.length filtered)
    end;
    filtered

type refine = { r_rules : Xr_refine.Rule.t list }

let compile_refine ?config (index : Index.t) query =
  { r_rules = Engine.compiled_rules ?config index query }

let run_refine ?(config = Engine.default_config) plan (index : Index.t) query =
  let response =
    Engine.refine
      ~config:{ config with Engine.auto_mine = false }
      ~rules:plan.r_rules index query
  in
  if Xr_obs.Analyze.active () then
    Xr_obs.Analyze.note_stage ~name:"refine"
      ~input:(List.length plan.r_rules)
      ~output:(List.length response.Xr_refine.Engine.rules_used);
  response

(* ---- EXPLAIN ------------------------------------------------------------ *)

type explain_keyword = { ek_keyword : string; ek_id : int; ek_postings : int }

type explain_search = {
  x_keywords : explain_keyword list;
  x_missing : string list;
  x_algorithm : string;
  x_kernel : string;
  x_reason : string;
}

let explain_search ?(config = Engine.default_config) (index : Index.t) query =
  let doc = index.Index.doc in
  let alg = config.Engine.slca in
  let plan = compile_search ~config index query in
  let keywords =
    List.filter (fun k -> String.length k > 0) (List.map Token.normalize query)
    |> List.sort_uniq String.compare
  in
  let resolved, missing =
    List.partition_map
      (fun k ->
        match Doc.keyword_id doc k with
        | Some id ->
          Either.Left
            { ek_keyword = k; ek_id = (id :> int); ek_postings = Inverted.length index.Index.inverted id }
        | None -> Either.Right k)
      keywords
  in
  (* Present the lists in executed order: the scan family sorts by
     selectivity (driver — the rarest list — first); every other kernel
     consumes them in resolution order. The stable sort mirrors
     [Scan_packed.sort_by_length] over ranges built in id order. *)
  let executed_order =
    match alg with
    | Slca_engine.Scan_packed | Slca_engine.Scan_eager ->
      List.stable_sort (fun a b -> compare a.ek_postings b.ek_postings) resolved
    | _ -> resolved
  in
  let kernel, reason =
    match plan.s_exec with
    | Dead ->
      let reason =
        match missing with
        | [] -> (
          match List.find_opt (fun k -> k.ek_postings = 0) resolved with
          | Some k -> Printf.sprintf "keyword %S has an empty posting list" k.ek_keyword
          | None -> "empty query")
        | ks -> Printf.sprintf "out of vocabulary: %s" (String.concat ", " ks)
      in
      ("dead", reason)
    | Boxed ->
      ( "boxed",
        Printf.sprintf "algorithm %s is not packed: list-based kernel over decoded lists"
          (Slca_engine.name alg) )
    | Tiny ((_, dlo, dhi), _) ->
      ( "tiny",
        Printf.sprintf "driver range %d <= tiny threshold %d: cursor-free tiny kernel"
          (dhi - dlo)
          (Scan_packed.tiny_threshold ()) )
    | Ranges ranges ->
      ( (match alg with Slca_engine.Stack_packed -> "stack" | _ -> "scan"),
        Printf.sprintf "sequential %s kernel over %d packed range(s)"
          (Slca_engine.name alg) (List.length ranges) )
  in
  {
    x_keywords = executed_order;
    x_missing = missing;
    x_algorithm = Slca_engine.name alg;
    x_kernel = kernel;
    x_reason = reason;
  }

type explain_refine = {
  xr_search : explain_search;
  xr_rules : string list;  (** pruned rule list, in consultation order *)
}

let explain_refine ?config (index : Index.t) query =
  let plan = compile_refine ?config index query in
  {
    xr_search = explain_search ?config index query;
    xr_rules = List.map Xr_refine.Rule.to_string plan.r_rules;
  }
