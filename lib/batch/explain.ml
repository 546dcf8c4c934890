(* Text rendering of compiled-plan explanations. Layout is part of the
   golden-test contract: column widths are fixed, and nothing here
   reads live state (the record is complete). *)

open Plan

let add = Buffer.add_string

let addf buf fmt = Printf.ksprintf (add buf) fmt

let search buf (x : explain_search) =
  addf buf "plan: %s kernel (algorithm %s)\n" x.x_kernel x.x_algorithm;
  addf buf "  reason: %s\n" x.x_reason;
  if x.x_missing <> [] then
    addf buf "  missing: %s\n" (String.concat ", " x.x_missing);
  List.iteri
    (fun i k ->
      addf buf "  %s %-20s id=%-6d postings=%d\n"
        (if i = 0 && x.x_kernel <> "dead" && x.x_kernel <> "boxed" then "lists:" else "      ")
        k.ek_keyword k.ek_id k.ek_postings)
    x.x_keywords

let search_to_text x =
  let buf = Buffer.create 256 in
  search buf x;
  Buffer.contents buf

let refine_to_text (x : explain_refine) =
  let buf = Buffer.create 256 in
  search buf x.xr_search;
  addf buf "  rules (%d after static pruning):\n" (List.length x.xr_rules);
  List.iter (fun r -> addf buf "    %s\n" r) x.xr_rules;
  Buffer.contents buf
