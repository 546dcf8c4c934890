open Xr_xml
module Index = Xr_index.Index
module Stats = Xr_index.Stats
module Slca_engine = Xr_slca.Engine
module Meaningful = Xr_slca.Meaningful

type config = {
  max_results : int;
  k : int;
  target : float;
  sample : int;
  slca : Slca_engine.algorithm;
  search_for : Xr_slca.Search_for.config;
}

let default_config =
  {
    max_results = 50;
    k = 5;
    target = 0.2;
    sample = 200;
    slca = Slca_engine.Scan_packed;
    search_for = Xr_slca.Search_for.default_config;
  }

type suggestion = {
  keywords : string list;
  added : string;
  score : float;
  slcas : Dewey.t list;
}

let normalize query =
  List.filter (fun k -> String.length k > 0) (List.map Token.normalize query)
  |> List.sort_uniq String.compare

let meaningful_results config (index : Index.t) keywords =
  let doc = index.Index.doc in
  let ids = List.filter_map (Doc.keyword_id doc) keywords in
  if List.length ids < List.length keywords then ([], None)
  else begin
    let ctx = Meaningful.make ~config:config.search_for index.Index.stats ids in
    (Meaningful.filter ctx (Slca_engine.query_ids config.slca index ids), Some ctx)
  end

let too_broad ?(config = default_config) index query =
  let results, _ = meaningful_results config index (normalize query) in
  List.length results > config.max_results

(* Gaussian preference for keywords whose selectivity is near the target
   reduction: a keyword present in almost every result narrows nothing; a
   near-unique one overshoots. *)
let balance config selectivity =
  let sigma = 0.18 in
  let d = selectivity -. config.target in
  exp (-.(d *. d) /. (2. *. sigma *. sigma))

let suggest ?(config = default_config) (index : Index.t) query =
  let doc = index.Index.doc in
  let query = normalize query in
  let results, ctx = meaningful_results config index query in
  match (results, ctx) with
  | [], _ | _, None -> []
  | _, Some ctx ->
    let total = List.length results in
    let sampled = List.filteri (fun i _ -> i < config.sample) results in
    let nsampled = List.length sampled in
    let q_ids = List.filter_map (Doc.keyword_id doc) query in
    (* how many sampled results contain each candidate keyword *)
    let counts : (Interner.id, int) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun r ->
        let lo, hi = Doc.subtree_node_range doc r in
        let seen = Hashtbl.create 32 in
        for i = lo to hi - 1 do
          List.iter
            (fun (kw, _) ->
              if (not (Hashtbl.mem seen kw)) && not (List.mem kw q_ids) then begin
                Hashtbl.add seen kw ();
                Hashtbl.replace counts kw (1 + try Hashtbl.find counts kw with Not_found -> 0)
              end)
            doc.Doc.nodes.(i).Doc.keywords
        done)
      sampled;
    (* association-rule confidence of Q's keywords implying the candidate,
       over the search-for candidate types (Formula 7 reused) *)
    let dependence kw =
      List.fold_left
        (fun acc (path, conf) ->
          let per_q =
            List.fold_left
              (fun a q ->
                let fq = Stats.df index.Index.stats ~path ~kw:q in
                if fq = 0 then a
                else
                  a
                  +. float_of_int (Stats.cooccur index.Index.stats ~path q kw)
                     /. float_of_int fq)
              0. q_ids
          in
          acc +. (conf *. per_q /. float_of_int (max 1 (List.length q_ids))))
        0. (Meaningful.candidates ctx)
    in
    let scored =
      Hashtbl.fold
        (fun kw count acc ->
          if count >= 1 && count < nsampled then begin
            let selectivity = float_of_int count /. float_of_int nsampled in
            let score = balance config selectivity *. (0.5 +. dependence kw) in
            (kw, score) :: acc
          end
          else acc)
        counts []
      |> List.sort (fun (k1, s1) (k2, s2) ->
             match Float.compare s2 s1 with 0 -> Int.compare k1 k2 | c -> c)
    in
    (* verify the best candidates actually narrow the query *)
    let rec build acc = function
      | [] -> List.rev acc
      | _ when List.length acc >= config.k -> List.rev acc
      | (kw, score) :: rest ->
        let added = Doc.keyword_name doc kw in
        let keywords = List.sort_uniq String.compare (added :: query) in
        let slcas, _ = meaningful_results config index keywords in
        let n = List.length slcas in
        if n > 0 && n < total then build ({ keywords; added; score; slcas } :: acc) rest
        else build acc rest
    in
    build [] (List.filteri (fun i _ -> i < 4 * config.k) scored)
