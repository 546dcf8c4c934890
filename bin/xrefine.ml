(* xrefine: command-line front end of the XRefine engine.

   Subcommands:
     generate  write a synthetic corpus (dblp | baseball | figure1) to XML
     index     build and persist the index of an XML file
     search    plain meaningful-SLCA search
     refine    automatic query refinement (the paper's pipeline)
     serve     keep the index resident and answer queries over HTTP
     stats     document statistics: node types, search-for inference *)

open Cmdliner
module Index = Xr_index.Index
module Engine = Xr_refine.Engine
module Result = Xr_refine.Result

(* ---- shared arguments -------------------------------------------------- *)

let doc_file =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "document" ] ~docv:"FILE" ~doc:"XML document to operate on.")

let query_args =
  Arg.(value & pos_all string [] & info [] ~docv:"KEYWORD" ~doc:"Query keywords.")

let load_index file =
  if Filename.check_suffix file ".xrdb" then Index.load (Xr_store.Kv.btree_file file)
  else Index.of_file file

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON (the server's schema).")

(* ---- generate ----------------------------------------------------------- *)

let generate_cmd =
  let corpus =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("dblp", `Dblp); ("baseball", `Baseball); ("auction", `Auction); ("figure1", `Figure1) ]))
          None
      & info [] ~docv:"CORPUS" ~doc:"Corpus kind: dblp, baseball, auction or figure1.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let scale =
    Arg.(value & opt int 2000 & info [ "n"; "scale" ] ~docv:"N" ~doc:"Publications (dblp only).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.") in
  let run corpus out scale seed =
    let tree =
      match corpus with
      | `Dblp -> Xr_data.Dblp.scaled ~publications:scale ~seed
      | `Baseball -> Xr_data.Baseball.generate ~config:{ Xr_data.Baseball.default_config with seed } ()
      | `Auction -> Xr_data.Auction.generate ~config:{ Xr_data.Auction.default_config with seed } ()
      | `Figure1 -> Xr_data.Figure1.tree ()
    in
    Xr_xml.Printer.to_file out tree;
    Printf.printf "wrote %s (%d element nodes)\n" out (Xr_xml.Tree.size tree)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic XML corpus.")
    Term.(const run $ corpus $ out $ scale $ seed)

(* ---- index ---------------------------------------------------------------- *)

let index_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE.xrdb" ~doc:"Index store to create.")
  in
  let show_stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print representation statistics after building: postings and resident bytes.")
  in
  let run doc out show_stats =
    let t0 = Unix.gettimeofday () in
    let index = Index.of_file doc in
    let kv = Xr_store.Kv.btree_file out in
    Index.save index kv;
    kv.Xr_store.Kv.close ();
    let nodes = Xr_xml.Doc.node_count index.Index.doc in
    Printf.printf "indexed %s -> %s: %d nodes, %d keywords, %d node types in %.2fs\n" doc out
      nodes
      (List.length (Xr_xml.Doc.vocabulary index.Index.doc))
      (Xr_xml.Path.size index.Index.doc.Xr_xml.Doc.paths)
      (Unix.gettimeofday () -. t0);
    if show_stats then begin
      let resident = Xr_index.Inverted.resident_bytes index.Index.inverted in
      Printf.printf "  postings        %d\n"
        (Xr_index.Inverted.postings_total index.Index.inverted);
      Printf.printf "  resident bytes  %d (%.1f bytes/node)\n" resident
        (float_of_int resident /. float_of_int (max 1 nodes))
    end
  in
  Cmd.v
    (Cmd.info "index" ~doc:"Build and persist the inverted lists and statistics of a document.")
    Term.(const run $ doc_file $ out $ show_stats)

(* A top-k size: below 1 the answer would be an empty list that looks
   like a real "nothing found", so the option rejects it (exit 124). *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (`Msg "K must be at least 1")
    | None -> Error (`Msg (Printf.sprintf "invalid K value %S (expected an integer)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* ---- search ----------------------------------------------------------------- *)

let search_cmd =
  let alg =
    Arg.(
      value
      & opt string "scan-packed"
      & info [ "slca" ] ~docv:"ALG"
          ~doc:
            "SLCA engine: stack, scan-eager, indexed-lookup, multiway, stack-packed, \
             scan-packed.")
  in
  let rank =
    Arg.(value & flag & info [ "rank" ] ~doc:"Order results by XML TF*IDF relevance.")
  in
  let interconnected =
    Arg.(
      value & flag
      & info [ "interconnected" ]
          ~doc:"Keep only results whose witnesses are pairwise interconnected (XSEarch).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Record per-stage spans and print the span tree with durations after the results.")
  in
  let explain_plan =
    Arg.(
      value & flag
      & info [ "explain-plan" ]
          ~doc:"Print the compiled plan (list order, kernel choice and why) without \
                executing the query. With --json, emit the server's explain schema.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:"Execute the query and append per-stage actuals as JSON: span durations, \
                candidates in/out, and GC deltas.")
  in
  let run doc alg rank interconnected trace explain_plan analyze json query =
    let index = load_index doc in
    let slca =
      match Xr_slca.Engine.of_name alg with
      | Some a -> a
      | None -> failwith ("unknown SLCA engine " ^ alg)
    in
    let config = { Engine.default_config with slca } in
    if explain_plan then begin
      let x = Xr_batch.Plan.explain_search ~config index query in
      if json then
        print_endline (Xr_server.Json.to_string (Xr_server.Api.explain_payload x))
      else print_string (Xr_batch.Explain.search_to_text x)
    end
    else begin
    let post slcas =
      if interconnected then Xr_slca.Interconnection.filter index query slcas else slcas
    in
    if trace || analyze then Xr_obs.Tracing.enable ();
    let gc0 = Xr_obs.Runtime.capture () in
    let t0 = Xr_obs.Tracing.now_ns () in
    let ((slcas, entries), report), trace_id =
      Xr_obs.Tracing.with_trace "search" (fun () ->
          let body () =
            let slcas = post (Engine.search ~config index query) in
            let entries =
              if rank then
                let ids = List.filter_map (Xr_xml.Doc.keyword_id index.Index.doc) query in
                Xr_slca.Result_rank.rank index.Index.stats ~query:ids slcas
              else List.map (fun d -> (d, 0.)) slcas
            in
            (slcas, entries)
          in
          if analyze then
            let r, rep = Xr_obs.Analyze.with_report body in
            (r, Some rep)
          else (body (), None))
    in
    let ms = Int64.to_float (Int64.sub (Xr_obs.Tracing.now_ns ()) t0) /. 1e6 in
    let gc = Xr_obs.Runtime.delta gc0 in
    let print_trace () =
      if trace && trace_id <> 0 then begin
        print_newline ();
        print_string (Xr_obs.Tracing.render_tree (Xr_obs.Tracing.spans_of_trace trace_id))
      end
    in
    let print_analyze () =
      match report with
      | None -> ()
      | Some report ->
        let spans =
          if trace_id = 0 then []
          else
            List.filter
              (fun (s : Xr_obs.Tracing.span) -> s.Xr_obs.Tracing.parent_id <> 0)
              (Xr_obs.Tracing.spans_of_trace trace_id)
        in
        print_newline ();
        print_endline
          (Xr_server.Json.to_string (Xr_server.Api.analyze_payload ~ms ~gc ~spans report))
    in
    (if json then
       print_endline
         (Xr_server.Json.to_string
            (Xr_server.Api.search_payload index ~query ~ranked:rank entries))
     else
       match entries with
       | [] -> print_endline "no meaningful result (the query may need refinement; try `refine`)"
       | entries ->
         Printf.printf "%d meaningful SLCA result(s):\n" (List.length slcas);
         let ids = List.filter_map (Xr_xml.Doc.keyword_id index.Index.doc) query in
         List.iter
           (fun (d, score) ->
             let snippet = Xr_slca.Snippet.of_result index.Index.doc ~query:ids d in
             if rank then
               Printf.printf "- %-24s (relevance %.3f)  %s\n"
                 (Xr_xml.Doc.label index.Index.doc d) score snippet
             else Printf.printf "- %-24s %s\n" (Xr_xml.Doc.label index.Index.doc d) snippet)
           entries);
    print_trace ();
    print_analyze ()
    end
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Meaningful-SLCA keyword search (no refinement).")
    Term.(
      const run $ doc_file $ alg $ rank $ interconnected $ trace $ explain_plan
      $ analyze $ json_flag $ query_args)

(* ---- suggest -------------------------------------------------------------- *)

let suggest_cmd =
  let k =
    Arg.(value & opt positive 5 & info [ "k" ] ~docv:"K" ~doc:"Suggestions to return.")
  in
  let run doc k query =
    let index = load_index doc in
    let d = index.Index.doc in
    let config = { Xr_refine.Specialize.default_config with k } in
    match Engine.search index query with
    | [] -> print_endline "no meaningful result; use `refine` instead"
    | results -> (
      Printf.printf "query has %d meaningful result(s); narrowing suggestions:\n"
        (List.length results);
      match Xr_refine.Specialize.suggest ~config index query with
      | [] -> print_endline "  (no keyword usefully narrows this query)"
      | suggestions ->
        List.iteri
          (fun i (s : Xr_refine.Specialize.suggestion) ->
            Printf.printf "  #%d add \"%s\" -> {%s}: %d result(s), e.g. %s\n" (i + 1)
              s.Xr_refine.Specialize.added
              (String.concat " " s.Xr_refine.Specialize.keywords)
              (List.length s.Xr_refine.Specialize.slcas)
              (match s.Xr_refine.Specialize.slcas with
              | r :: _ -> Xr_xml.Doc.label d r
              | [] -> "-"))
          suggestions)
  in
  Cmd.v
    (Cmd.info "suggest"
       ~doc:"Narrow an over-broad query by suggesting additional keywords (specialization).")
    Term.(const run $ doc_file $ k $ query_args)

(* ---- refine ------------------------------------------------------------------ *)

let refine_cmd =
  let k =
    (* the refinement top-k lists need room for at least one query *)
    Arg.(value & opt positive 3 & info [ "k" ] ~docv:"K" ~doc:"Refined queries to return.")
  in
  let alg =
    Arg.(
      value
      & opt string "partition"
      & info [ "a"; "algorithm" ] ~docv:"ALG" ~doc:"stack-refine, partition or sle.")
  in
  let show_rules = Arg.(value & flag & info [ "show-rules" ] ~doc:"Print the consulted rules.") in
  let rules_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "rules" ] ~docv:"FILE" ~doc:"Extra refinement rules (see Rule_file format).")
  in
  let no_mine =
    Arg.(value & flag & info [ "no-mine" ] ~doc:"Disable automatic rule mining (use only --rules).")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the ranking breakdown of each refined query.")
  in
  let explain_plan =
    Arg.(
      value & flag
      & info [ "explain-plan" ]
          ~doc:"Print the compiled plan plus the statically-pruned rule list without \
                executing. With --json, emit the server's explain schema.")
  in
  let thesaurus_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "thesaurus" ] ~docv:"FILE" ~doc:"Extra synonym/acronym entries (see Thesaurus format).")
  in
  let run doc k alg show_rules rules_file no_mine explain explain_plan thesaurus_file json
      query =
    let index = load_index doc in
    let algorithm =
      match Engine.algorithm_of_name alg with
      | Some a -> a
      | None -> failwith ("unknown algorithm " ^ alg)
    in
    let thesaurus =
      match thesaurus_file with
      | None -> None
      | Some f ->
        let base = Xr_text.Thesaurus.default () in
        Xr_text.Thesaurus.merge base (Xr_text.Thesaurus.load f);
        Some base
    in
    let config =
      { Engine.default_config with k; algorithm; auto_mine = not no_mine; thesaurus }
    in
    if explain_plan then begin
      let x = Xr_batch.Plan.explain_refine ~config index query in
      if json then
        print_endline (Xr_server.Json.to_string (Xr_server.Api.explain_refine_payload x))
      else print_string (Xr_batch.Explain.refine_to_text x)
    end
    else begin
    let rules =
      match rules_file with Some f -> Xr_refine.Rule_file.load f | None -> []
    in
    let resp = Engine.refine ~config ~rules index query in
    if json then
      print_endline
        (Xr_server.Json.to_string (Xr_server.Api.refine_payload index ~query resp))
    else begin
    if show_rules then begin
      print_endline "rules consulted:";
      List.iter (fun r -> Printf.printf "  %s\n" (Xr_refine.Rule.to_string r)) resp.Engine.rules_used
    end;
    print_endline (Result.describe index.Index.doc resp.Engine.result);
    if explain then begin
      match resp.Engine.result with
      | Result.Refined matches ->
        print_endline "ranking breakdown:";
        List.iter
          (fun (m : Result.rq_match) ->
            print_endline
              (Xr_refine.Ranking.explain index.Index.stats ~original:query m.Result.rq))
          matches
      | Result.Original _ | Result.No_result -> ()
    end
    end
    end
  in
  Cmd.v
    (Cmd.info "refine" ~doc:"Automatic XML keyword query refinement (the paper's pipeline).")
    Term.(
      const run $ doc_file $ k $ alg $ show_rules $ rules_file $ no_mine
      $ explain $ explain_plan $ thesaurus_file $ json_flag $ query_args)

(* ---- serve -------------------------------------------------------------------- *)

let serve_cmd =
  let port =
    Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port to listen on.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")
  in
  let unix_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket instead of TCP.")
  in
  let domains =
    (* [auto] resolves at parse time — the rest of the server only ever
       sees a concrete count *)
    let domains_conv =
      let parse s =
        match s with
        | "auto" -> Ok (Domain.recommended_domain_count ())
        | _ -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | Some _ -> Error (`Msg "DOMAINS must be at least 1")
          | None ->
            Error (`Msg (Printf.sprintf "invalid DOMAINS value %S (expected int or 'auto')" s)))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(
      value
      & opt domains_conv (Domain.recommended_domain_count ())
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains sharing the index; $(b,auto) sizes to the host's recommended \
             domain count.")
  in
  let queue =
    Arg.(
      value
      & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission-control bound on queued connections (overload answers 503).")
  in
  let cache =
    Arg.(
      value
      & opt int 512
      & info [ "cache" ] ~docv:"N" ~doc:"Result-cache capacity in entries (0 disables).")
  in
  let cache_shards =
    Arg.(value & opt int 8 & info [ "cache-shards" ] ~docv:"N" ~doc:"Result-cache lock shards.")
  in
  let deadline =
    Arg.(
      value
      & opt float 5000.
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request time budget in milliseconds.")
  in
  let limit =
    Arg.(
      value
      & opt int 20
      & info [ "limit" ] ~docv:"N" ~doc:"Default cap on result arrays in responses.")
  in
  let no_batch =
    Arg.(
      value & flag
      & info [ "no-batch" ]
          ~doc:
            "Disable batched execution: compiled query plans and single-flight coalescing \
             of concurrent identical requests.")
  in
  let coalesce_window_ms =
    Arg.(
      value
      & opt float 0.
      & info [ "coalesce-window-ms" ] ~docv:"MS"
          ~doc:
            "Wait this long before rendering a cache miss so concurrent identical requests \
             can pile onto one execution; 0 adds no latency and still coalesces genuine \
             overlap.")
  in
  let plan_cache =
    Arg.(
      value
      & opt int 512
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:"Compiled query plans cached per corpus (0 disables plan caching).")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Disable the stderr request log.") in
  let no_trace =
    Arg.(
      value & flag
      & info [ "no-trace" ]
          ~doc:"Disable per-request span recording (/debug/trace and slow-query breakdowns).")
  in
  let slow_query_ms =
    Arg.(
      value
      & opt float 0.
      & info [ "slow-query-ms" ] ~docv:"MS"
          ~doc:
            "Log one structured stderr line (with span breakdown) for every request at or \
             above this latency; 0 disables.")
  in
  let doc_files =
    Arg.(
      value
      & opt_all file []
      & info [ "d"; "document" ] ~docv:"FILE"
          ~doc:
            "XML document or .xrdb store to serve; repeat to serve several corpora \
             (each named after its file, partitioned over shards).")
  in
  let compress =
    Arg.(
      value
      & opt (enum [ ("flat", ()) ]) ()
      & info [ "compress" ] ~docv:"REPR"
          ~doc:
            "Compatibility option: $(b,flat) (one packed postings list per keyword) is the \
             only in-memory index representation and the only accepted value.")
  in
  let shards =
    Arg.(
      value
      & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Serving shards the corpora are partitioned over (scatter-gather); 0 gives \
             every corpus its own shard.")
  in
  let run docs () port host unix_socket shards domains queue cache cache_shards deadline
      limit no_batch coalesce_window_ms plan_cache quiet no_trace
      slow_query_ms =
    if docs = [] then (
      prerr_endline "xrefine serve: pass at least one -d FILE";
      exit 2);
    (* Corpus names come from the file basenames, deduplicated in order. *)
    let seen = Hashtbl.create 8 in
    let specs =
      List.map
        (fun file ->
          let base = Filename.remove_extension (Filename.basename file) in
          let n = try Hashtbl.find seen base with Not_found -> 0 in
          Hashtbl.replace seen base (n + 1);
          let name = if n = 0 then base else Printf.sprintf "%s-%d" base (n + 1) in
          if Filename.check_suffix file ".xrdb" then begin
            (* Keep the store open: ingest persists each generation back
               into it, so the corpus survives a restart. *)
            let kv = Xr_store.Kv.btree_file file in
            { Xr_server.Server.name; index = Index.load kv; kv = Some kv }
          end
          else { Xr_server.Server.name; index = Index.of_file file; kv = None })
        docs
    in
    let addr =
      match unix_socket with
      | Some path -> Xr_server.Server.Unix_socket path
      | None -> Xr_server.Server.Tcp (host, port)
    in
    let config =
      {
        Xr_server.Server.default_config with
        Xr_server.Server.addr;
        domains;
        queue_bound = queue;
        cache_capacity = cache;
        cache_shards;
        deadline_ms = deadline;
        result_limit = limit;
        log = not quiet;
        trace = not no_trace;
        slow_query_ms;
        shards;
        batch = not no_batch;
        coalesce_window_ms;
        plan_cache_capacity = plan_cache;
      }
    in
    let server = Xr_server.Server.start_corpora config specs in
    let where =
      match Xr_server.Server.bound_addr server with
      | Unix.ADDR_INET (a, p) -> Printf.sprintf "http://%s:%d" (Unix.string_of_inet_addr a) p
      | Unix.ADDR_UNIX p -> "unix:" ^ p
    in
    let nodes =
      List.fold_left
        (fun acc s -> acc + Xr_xml.Doc.node_count s.Xr_server.Server.index.Index.doc)
        0 specs
    in
    Printf.printf
      "xrefine serve: %d corpora (%s), %d nodes resident; %d worker domain(s), queue bound \
       %d, cache %d, deadline %.0f ms\nlistening on %s\n%!"
      (List.length specs)
      (String.concat ", " (List.map (fun s -> s.Xr_server.Server.name) specs))
      nodes domains queue cache deadline where;
    let stop _ = Xr_server.Server.stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Xr_server.Server.run server;
    List.iter
      (fun s -> Option.iter (fun (kv : Xr_store.Kv.t) -> kv.close ()) s.Xr_server.Server.kv)
      specs;
    prerr_endline "xrefine serve: stopped"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve /search, /refine, /suggest, /complete, /stats, /metrics.json and /debug/trace \
          as JSON plus /metrics as Prometheus text over HTTP, keeping one or more corpora \
          resident (sharded, writable via POST /ingest) and answering from parallel worker \
          domains.")
    Term.(
      const run $ doc_files $ compress $ port $ host $ unix_socket $ shards $ domains
      $ queue $ cache $ cache_shards $ deadline $ limit $ no_batch
      $ coalesce_window_ms $ plan_cache $ quiet $ no_trace $ slow_query_ms)

(* ---- ingest -------------------------------------------------------------------- *)

let ingest_cmd =
  let port =
    Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server TCP port.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server address.")
  in
  let unix_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH" ~doc:"Connect to a Unix-domain socket instead of TCP.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"NAME"
          ~doc:"Target corpus (required when the server hosts several).")
  in
  let no_sync =
    Arg.(
      value & flag
      & info [ "no-sync" ]
          ~doc:
            "Return as soon as the document is queued instead of waiting for it to be \
             merged and published.")
  in
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"XML documents to append, one partition each.")
  in
  let run port host unix_socket corpus no_sync files =
    let connect () =
      match unix_socket with
      | Some path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      | None ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
            | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
            | _ -> failwith ("cannot resolve host " ^ host))
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (inet, port));
        fd
    in
    let target =
      let params =
        (if no_sync then [] else [ "sync=true" ])
        @
        match corpus with
        | Some c -> [ "corpus=" ^ Xr_server.Http.percent_encode c ]
        | None -> []
      in
      match params with [] -> "/ingest" | ps -> "/ingest?" ^ String.concat "&" ps
    in
    let post file =
      let ic = open_in_bin file in
      let body =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let fd = connect () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Xr_server.Http.write_all fd
            (Printf.sprintf
               "POST %s HTTP/1.1\r\nhost: %s\r\ncontent-length: %d\r\nconnection: \
                close\r\n\r\n%s"
               target host (String.length body) body);
          match Xr_server.Http.read_response (Xr_server.Http.reader_of_fd fd) with
          | Ok (status, _headers, body) ->
            Printf.printf "%s: %d %s%!" file status body;
            status < 300
          | Error e ->
            Printf.eprintf "%s: %s\n%!" file (Xr_server.Http.error_to_string e);
            false)
    in
    let ok = List.for_all post files in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Append XML documents to a running server's corpus via POST /ingest; by default \
          waits until each document is merged and published (visible to queries).")
    Term.(const run $ port $ host $ unix_socket $ corpus $ no_sync $ files)

(* ---- complete ----------------------------------------------------------------- *)

let complete_cmd =
  let prefix =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PREFIX" ~doc:"Keyword prefix.")
  in
  let k =
    Arg.(value & opt positive 10 & info [ "k" ] ~docv:"K" ~doc:"Completions to show.")
  in
  let run doc prefix k =
    let index = load_index doc in
    let d = index.Index.doc in
    let trie =
      Xr_text.Trie.of_vocabulary
        (List.map
           (fun w ->
             ( w,
               match Xr_xml.Doc.keyword_id d w with
               | Some kw -> Xr_index.Inverted.length index.Index.inverted kw
               | None -> 0 ))
           (Xr_xml.Doc.vocabulary d))
    in
    match Xr_text.Trie.complete trie ~limit:k prefix with
    | [] -> print_endline "(no completion in this corpus)"
    | completions ->
      List.iter (fun (w, n) -> Printf.printf "%-24s %d occurrence node(s)\n" w n) completions
  in
  Cmd.v
    (Cmd.info "complete" ~doc:"Complete a keyword prefix against the corpus vocabulary.")
    Term.(const run $ doc_file $ prefix $ k)

(* ---- repl ---------------------------------------------------------------------- *)

let repl_cmd =
  let run doc =
    let index = load_index doc in
    let d = index.Index.doc in
    let trie =
      lazy
        (Xr_text.Trie.of_vocabulary
           (List.map
              (fun w ->
                ( w,
                  match Xr_xml.Doc.keyword_id d w with
                  | Some kw -> Xr_index.Inverted.length index.Index.inverted kw
                  | None -> 0 ))
              (Xr_xml.Doc.vocabulary d)))
    in
    Printf.printf
      "xrefine repl — %d nodes, %d keywords.\nType a query; :complete PREFIX, :xpath PATH, :explain QUERY, :quit.\n%!"
      (Xr_xml.Doc.node_count d)
      (List.length (Xr_xml.Doc.vocabulary d));
    let rec loop () =
      print_string "query> ";
      match In_channel.input_line stdin with
      | None -> ()
      | Some line when String.trim line = ":quit" || String.trim line = ":q" -> ()
      | Some line when String.length (String.trim line) > 10
                       && String.sub (String.trim line) 0 10 = ":complete " ->
        let prefix = String.trim (String.sub (String.trim line) 10 (String.length (String.trim line) - 10)) in
        List.iter
          (fun (w, n) -> Printf.printf "  %-24s %d occurrence node(s)\n" w n)
          (Xr_text.Trie.complete (Lazy.force trie) prefix);
        loop ()
      | Some line when String.length (String.trim line) > 7
                       && String.sub (String.trim line) 0 7 = ":xpath " ->
        let expr = String.trim (String.sub (String.trim line) 7 (String.length (String.trim line) - 7)) in
        (match Xr_xml.Xpath.parse expr with
        | Error msg -> Printf.printf "  bad path: %s\n" msg
        | Ok p ->
          let nodes = Xr_xml.Xpath.eval d p in
          Printf.printf "  %d node(s)\n" (List.length nodes);
          List.iteri
            (fun i dewey -> if i < 10 then Printf.printf "  - %s\n" (Xr_xml.Doc.label d dewey))
            nodes);
        loop ()
      | Some line when String.length (String.trim line) > 9
                       && String.sub (String.trim line) 0 9 = ":explain " ->
        let q = Xr_xml.Token.tokenize (String.sub (String.trim line) 9 (String.length (String.trim line) - 9)) in
        (match (Engine.refine index q).Engine.result with
        | Result.Refined matches ->
          List.iter
            (fun (m : Result.rq_match) ->
              print_endline (Xr_refine.Ranking.explain index.Index.stats ~original:q m.Result.rq))
            matches
        | Result.Original _ -> print_endline "  (matches directly; nothing to explain)"
        | Result.No_result -> print_endline "  (no refinement found)");
        loop ()
      | Some line ->
        let query = Xr_xml.Token.tokenize line in
        (if query = [] then print_endline "(empty query)"
         else begin
           let ids = List.filter_map (Xr_xml.Doc.keyword_id d) query in
           match Engine.auto index query with
           | Engine.Matched slcas ->
             Printf.printf "%d result(s):\n" (List.length slcas);
             List.iteri
               (fun i dewey ->
                 if i < 10 then
                   Printf.printf "  %-24s %s\n" (Xr_xml.Doc.label d dewey)
                     (Xr_slca.Snippet.of_result d ~query:ids dewey))
               slcas
           | Engine.Auto_refined resp ->
             print_endline "no meaningful result; refined automatically:";
             print_endline (Result.describe d resp.Engine.result)
           | Engine.Narrowed (slcas, suggestions) ->
             Printf.printf "%d results - narrow with:%s\n" (List.length slcas)
               (String.concat ""
                  (List.map
                     (fun (s : Xr_refine.Specialize.suggestion) ->
                       Printf.sprintf " +%s(%d)" s.Xr_refine.Specialize.added
                         (List.length s.Xr_refine.Specialize.slcas))
                     suggestions))
         end);
        loop ()
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive query session with the fully adaptive pipeline.")
    Term.(const run $ doc_file)

(* ---- xpath ------------------------------------------------------------------ *)

let xpath_cmd =
  let expr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"Path expression.")
  in
  let run doc expr =
    let index = load_index doc in
    let d = index.Index.doc in
    match Xr_xml.Xpath.parse expr with
    | Error msg -> failwith ("bad path: " ^ msg)
    | Ok p ->
      let nodes = Xr_xml.Xpath.eval d p in
      Printf.printf "%d node(s) match %s:\n" (List.length nodes) (Xr_xml.Xpath.to_string p);
      List.iteri
        (fun i dewey ->
          if i < 20 then Printf.printf "- %s\n" (Xr_xml.Doc.label d dewey)
          else if i = 20 then print_endline "  ...")
        nodes
  in
  Cmd.v
    (Cmd.info "xpath" ~doc:"Evaluate a simple path expression (child//descendant steps, [kw] filter).")
    Term.(const run $ doc_file $ expr)

(* ---- workload / replay ---------------------------------------------------- *)

let workload_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  let per_kind =
    Arg.(value & opt int 5 & info [ "per-kind" ] ~docv:"N" ~doc:"Cases per corruption kind.")
  in
  let seed = Arg.(value & opt int 2009 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let run doc out per_kind seed =
    let index = load_index doc in
    let rng = Xr_data.Rng.create seed in
    let thesaurus = Xr_text.Thesaurus.default () in
    let pool = Xr_eval.Querylog.pool ~thesaurus rng index ~per_kind in
    Xr_eval.Trace.save out pool;
    Printf.printf "wrote %d corrupted queries (with intents and repair rules) to %s\n"
      (List.length pool) out
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Generate a reproducible pool of corrupted queries (with known repairs) for a document.")
    Term.(const run $ doc_file $ out $ per_kind $ seed)

let replay_cmd =
  let trace =
    Arg.(
      required & opt (some file) None & info [ "t"; "trace" ] ~docv:"FILE" ~doc:"Trace to replay.")
  in
  let run doc trace =
    let index = load_index doc in
    let cases = Xr_eval.Trace.load trace in
    let hits = ref 0 and total = ref 0 in
    List.iter
      (fun (c : Xr_eval.Querylog.case) ->
        incr total;
        let resp = Engine.refine index c.Xr_eval.Querylog.corrupted in
        let recovered =
          match resp.Engine.result with
          | Result.Refined ({ Result.rq; _ } :: _) ->
            rq.Xr_refine.Refined_query.keywords
            = List.sort_uniq String.compare
                (List.map Xr_xml.Token.normalize c.Xr_eval.Querylog.intent)
          | _ -> false
        in
        if recovered then incr hits;
        Printf.printf "[%s] {%s} -> %s\n"
          (Xr_eval.Querylog.kind_name c.Xr_eval.Querylog.kind)
          (String.concat "," c.Xr_eval.Querylog.corrupted)
          (match resp.Engine.result with
          | Result.Refined ({ Result.rq; slcas; _ } :: _) ->
            Printf.sprintf "%s (%d results)%s"
              (Xr_refine.Refined_query.to_string rq)
              (List.length slcas)
              (if recovered then "  [intent recovered]" else "")
          | Result.Original _ -> "(matched directly)"
          | Result.Refined [] | Result.No_result -> "(no refinement)"))
      cases;
    Printf.printf "recovered the exact intent for %d/%d queries\n" !hits !total
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a workload trace and report intent recovery.")
    Term.(const run $ doc_file $ trace)

(* ---- stats --------------------------------------------------------------------- *)

let stats_cmd =
  let run doc query =
    let index = load_index doc in
    let d = index.Index.doc in
    Printf.printf "document: %d element nodes, %d keywords, %d node types, depth %d\n"
      (Xr_xml.Doc.node_count d)
      (List.length (Xr_xml.Doc.vocabulary d))
      (Xr_xml.Path.size d.Xr_xml.Doc.paths)
      (Xr_xml.Tree.depth d.Xr_xml.Doc.tree);
    Xr_xml.Path.iter
      (fun p ->
        Printf.printf "  %-50s N_T=%-6d G_T=%d\n" (Xr_xml.Doc.path_string d p)
          (Xr_index.Stats.node_count index.Index.stats p)
          (Xr_index.Stats.distinct_keywords index.Index.stats p))
      d.Xr_xml.Doc.paths;
    if query <> [] then begin
      let ids = List.filter_map (Xr_xml.Doc.keyword_id d) query in
      Printf.printf "search-for candidates of {%s}:\n" (String.concat "," query);
      List.iter
        (fun (p, conf) -> Printf.printf "  %-50s confidence %.4f\n" (Xr_xml.Doc.path_string d p) conf)
        (Xr_slca.Search_for.infer index.Index.stats ids)
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Document statistics and search-for node inference.")
    Term.(const run $ doc_file $ query_args)

let () =
  let info =
    Cmd.info "xrefine" ~version:"1.0.0"
      ~doc:"Automatic XML keyword query refinement (XRefine reproduction)."
  in
  exit (Cmd.eval (Cmd.group info
       [ generate_cmd; index_cmd; search_cmd; refine_cmd; serve_cmd; ingest_cmd; suggest_cmd;
         complete_cmd; repl_cmd; xpath_cmd; workload_cmd; replay_cmd; stats_cmd ]))
