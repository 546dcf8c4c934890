(* The four request lists the end-to-end benchmark replays against
   [xrefine serve]. Every list is a pure function of the seed and the
   corpus generated from it, so two runs with one seed send the same
   requests in the same order.

   Why these four: [search_hot] is answered almost entirely by the
   result cache, so it measures the HTTP, cache and write path alone;
   [search_cold] and [refine_cold] hold more distinct requests than the
   512-entry result and plan caches, so every request runs the query
   layers (SLCA scan, ranking, rendering; rule compile and refinement);
   [mixed_ingest] is [search_hot] plus synced writes, whose publishes
   retire cached entries, so it shows read/write interference. *)

module Rng = Xr_data.Rng
module Zipf = Xr_data.Zipf
module Querylog = Xr_eval.Querylog
module Http = Xr_server.Http

type kind = Search | Refine | Ingest

type request = { kind : kind; target : string; body : string }

type t = {
  name : string;
  distinct : request array;
  order : int array;  (* the fixed request list, as indices into [distinct] *)
  warm : bool;  (* every distinct read is sent once before timing starts *)
  wrap : bool;
      (* a timed phase that reaches the end of the list starts over; cold
         lists never do, since a repeat would be a cache hit *)
  replay : int;  (* prefix replayed by the traced run *)
}

type scale = {
  publications : int;
  hot_searches : int;  (* distinct hot /search targets *)
  hot_refines : int;  (* distinct hot /refine targets *)
  hot_requests : int;
  cold_searches : int;
  cold_refines : int;
  mixed_requests : int;
  replay_hot : int;
  replay_search_cold : int;
  replay_refine_cold : int;
  replay_mixed : int;
}

let full =
  {
    publications = 35_000;
    hot_searches = 64;
    hot_refines = 16;
    hot_requests = 600_000;
    cold_searches = 1_200;
    cold_refines = 450;
    mixed_requests = 2_000;
    replay_hot = 20_000;
    replay_search_cold = 100;
    replay_refine_cold = 50;
    replay_mixed = 200;
  }

let smoke =
  {
    publications = 300;
    hot_searches = 8;
    hot_refines = 4;
    hot_requests = 40;
    cold_searches = 40;
    cold_refines = 40;
    mixed_requests = 40;
    replay_hot = 10;
    replay_search_cold = 10;
    replay_refine_cold = 10;
    replay_mixed = 10;
  }

let names = [ "search_hot"; "search_cold"; "refine_cold"; "mixed_ingest" ]

(* Carried by every ingested document and by nothing the generator
   emits, so the final count of its matches audits the writes. *)
let marker = "xrebenchmarker"

let encode q = String.concat "+" (List.map Http.percent_encode q)

let search q = { kind = Search; target = "/search?q=" ^ encode q ^ "&rank=true"; body = "" }

let refine q = { kind = Refine; target = "/refine?q=" ^ encode q; body = "" }

let ingest body = { kind = Ingest; target = "/ingest?sync=true"; body }

(* The request as it goes over the wire. *)
let wire r =
  match r.kind with
  | Ingest ->
    Printf.sprintf "POST %s HTTP/1.1\r\nhost: e2e\r\ncontent-length: %d\r\n\r\n%s" r.target
      (String.length r.body) r.body
  | Search | Refine -> Printf.sprintf "GET %s HTTP/1.1\r\nhost: e2e\r\n\r\n" r.target

let take n l = List.filteri (fun i _ -> i < n) l

(* A fresh intent query of 2–3 keywords with a meaningful result, or
   [None] when the draw repeats one already in [seen]. *)
let fresh_intent rng index seen =
  match Querylog.sample_intent rng index ~len:(2 + Rng.int rng 2) with
  | Some q when not (Hashtbl.mem seen q) ->
    Hashtbl.add seen q ();
    Some q
  | _ -> None

(* The keyword with the fewest postings drives the SLCA scan and bounds
   the result count, so its list length sorts queries by cost. *)
let shortest_list (index : Xr_index.Index.t) q =
  List.fold_left
    (fun m k ->
      match Xr_xml.Doc.keyword_id index.Xr_index.Index.doc k with
      | Some id -> min m (Xr_index.Inverted.length index.Xr_index.Index.inverted id)
      | None -> 0)
    max_int q

(* Up to [n] distinct intents, as [Querylog.sample_intent] draws them. *)
let intents rng index ~n =
  let seen = Hashtbl.create n in
  let rec go acc count attempts =
    if count = n || attempts = 0 then List.rev acc
    else
      match fresh_intent rng index seen with
      | Some q -> go (q :: acc) (count + 1) (attempts - 1)
      | None -> go acc count (attempts - 1)
  in
  go [] 0 (20 * n)

(* Cost buckets by shortest posting list, as exclusive upper bounds. *)
let buckets = [| 1024; 4096; 16384; max_int |]

let bucket index q =
  let m = shortest_list index q in
  let rec find k = if m < buckets.(k) then k else find (k + 1) in
  find 0

(* [qs] reordered so that every prefix holds each [bucket] in the
   share it has in the whole list: each position goes to the bucket
   furthest behind its share, queries within a bucket keeping their
   order. A time-bounded run sends a prefix whose length depends on the
   host's speed, and a few queries over tens of thousands of postings
   dominate the mean cost, so without this the prefix a run sends would
   hold more or fewer of them by chance. Nothing is added or dropped. *)
let interleave ~bucket qs =
  let k = Array.length buckets in
  let queues = Array.init k (fun _ -> Queue.create ()) in
  List.iter (fun q -> Queue.add q queues.(bucket q)) qs;
  let n = List.length qs in
  let share = Array.map Queue.length queues and taken = Array.make k 0 in
  List.init n (fun p ->
      let behind i =
        (float_of_int ((p + 1) * share.(i)) /. float_of_int n) -. float_of_int taken.(i)
      in
      let best = ref (-1) in
      for i = 0 to k - 1 do
        if (not (Queue.is_empty queues.(i))) && (!best < 0 || behind i > behind !best) then
          best := i
      done;
      taken.(!best) <- taken.(!best) + 1;
      Queue.pop queues.(!best))

(* Up to [n] distinct corrupted queries across all six defect kinds,
   shuffled so kinds interleave. *)
let corrupted rng index ~n =
  let cases =
    Querylog.pool ~thesaurus:(Xr_text.Thesaurus.default ()) rng index
      ~per_kind:((n + 4) / 5)
  in
  let seen = Hashtbl.create n in
  let distinct =
    List.filter_map
      (fun (c : Querylog.case) ->
        let q = c.Querylog.corrupted in
        if Hashtbl.mem seen q then None
        else begin
          Hashtbl.add seen q ();
          Some q
        end)
      cases
  in
  take n (Rng.shuffle rng distinct)

(* A small publication drawn from the corpus vocabulary plus the
   marker, so a write extends existing posting lists as well as adding
   its own. *)
let ingest_doc rng words i =
  let w () = Rng.pick rng words in
  Printf.sprintf
    "<inproceedings><author>%s %s</author><title>%s %s %s %s %s</title><year>%d</year>\
     <booktitle>%s</booktitle></inproceedings>"
    (w ()) (w ()) (w ()) (w ()) (w ()) (w ()) marker
    (1990 + (i mod 30))
    (w ())

let vocabulary_words (index : Xr_index.Index.t) =
  Xr_xml.Doc.vocabulary index.Xr_index.Index.doc
  |> List.filter (fun w ->
         String.length w >= 3 && String.for_all (fun c -> c >= 'a' && c <= 'z') w)
  |> Array.of_list

(* A read mix over the hot targets, each drawn Zipf (s = 1): searches
   [0, hs) and refines [hs, hs + hr) of [distinct]. Kinds sit at fixed
   offsets of every block of 100 positions — [write_pct] writes and
   [refine_pct] refines, each spread evenly, searches elsewhere — rather
   than falling where a coin sends them, so any stretch of the list
   holds the same mix. Each write is a fresh document appended to
   [distinct]. *)
let hot_list rng ~searches ~refines ~n ~refine_pct ~write_pct ~words =
  let hs = List.length searches and hr = List.length refines in
  let zs = Zipf.create ~n:hs ~s:1.0 and zr = Zipf.create ~n:hr ~s:1.0 in
  let spread k ~phase = List.init k (fun j -> ((100 * j) + phase) / k) in
  let refine_at = spread refine_pct ~phase:50 and write_at = spread write_pct ~phase:25 in
  let writes = ref [] and nwrites = ref 0 in
  let order =
    Array.init n (fun p ->
        let o = p mod 100 in
        if List.mem o write_at then begin
          writes := ingest (ingest_doc rng words !nwrites) :: !writes;
          incr nwrites;
          hs + hr + !nwrites - 1
        end
        else if List.mem o refine_at then hs + Zipf.sample zr rng
        else Zipf.sample zs rng)
  in
  let distinct =
    Array.of_list (List.map search searches @ List.map refine refines @ List.rev !writes)
  in
  (distinct, order)

let make scale ~seed name index =
  let idx =
    match List.find_index (String.equal name) names with
    | Some i -> i
    | None -> invalid_arg ("unknown workload " ^ name)
  in
  let rng = Rng.create ((seed * 16) + idx + 1) in
  let hot ~n ~refine_pct ~write_pct =
    (* one hot set per seed, so [mixed_ingest] reads exactly the
       targets [search_hot] does *)
    let hot_rng = Rng.create (seed * 16) in
    let searches = intents hot_rng index ~n:scale.hot_searches in
    let refines = corrupted hot_rng index ~n:scale.hot_refines in
    hot_list rng ~searches ~refines ~n ~refine_pct ~write_pct
      ~words:(vocabulary_words index)
  in
  let cold reqs = (Array.of_list reqs, Array.init (List.length reqs) Fun.id) in
  let distinct, order, warm, wrap, replay =
    match name with
    | "search_hot" ->
      let d, o = hot ~n:scale.hot_requests ~refine_pct:3 ~write_pct:0 in
      (d, o, true, true, scale.replay_hot)
    | "search_cold" ->
      let d, o =
        cold
          (List.map search
             (interleave ~bucket:(bucket index) (intents rng index ~n:scale.cold_searches)))
      in
      (d, o, false, false, scale.replay_search_cold)
    | "refine_cold" ->
      let d, o = cold (List.map refine (corrupted rng index ~n:scale.cold_refines)) in
      (d, o, false, false, scale.replay_refine_cold)
    | _ ->
      let d, o = hot ~n:scale.mixed_requests ~refine_pct:3 ~write_pct:2 in
      (d, o, true, true, scale.replay_mixed)
  in
  { name; distinct; order; warm; wrap; replay = min replay (Array.length order) }

let request t i = t.distinct.(t.order.(i mod Array.length t.order))
